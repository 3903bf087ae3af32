package cache

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"argo/internal/sim"
	"argo/internal/sparse"
)

// denseLines is the model the on-demand line table must match: every line's
// slots, generation and used flag in full-length arrays, as the cache kept
// them before its storage went on demand.
type denseLines struct {
	page  []int // per slot
	st    []State
	ready []int64
	gen   []uint64 // per line
	used  []bool
	list  []int // used list, first-use order
}

func newDenseLines(lines, ppl int) *denseLines {
	m := &denseLines{
		page: make([]int, lines*ppl), st: make([]State, lines*ppl), ready: make([]int64, lines*ppl),
		gen: make([]uint64, lines), used: make([]bool, lines),
	}
	for i := range m.page {
		m.page[i] = -1
	}
	return m
}

// invalidateAll empties the model and returns the pages that were dirty. Only
// the used list's lines have their generation bumped, once per entry: any
// other line holds no page, so nobody holds a TLB entry a bump would have to
// kill, and the cache skips it.
func (m *denseLines) invalidateAll() (dirty []int) {
	for _, l := range m.list {
		m.gen[l]++
	}
	clear(m.used)
	for i := range m.page {
		if m.st[i] == Dirty {
			dirty = append(dirty, m.page[i])
		}
		m.page[i], m.st[i], m.ready[i] = -1, Invalid, 0
	}
	m.list = m.list[:0]
	return dirty
}

// A seeded random walk of refills, write misses, invalidations, fence-style
// sweeps and resets over geometries from a single one-page line to more than
// three chunks of lines: slot contents, generations, the used list and what a
// flushing reset hands out match the dense model, and only lines of chunks
// somebody locked exist.
func TestMatchesDenseLines(t *testing.T) {
	for _, g := range []struct{ lines, ppl int }{
		{1, 1}, {1, 4}, {3, 2}, {63, 1}, {64, 4}, {65, 3}, {200, 2},
	} {
		rng := rand.New(rand.NewSource(int64(g.lines*17 + g.ppl)))
		c := New(0, 64, g.lines, g.ppl, 8)
		m := newDenseLines(g.lines, g.ppl)
		locked := map[int]bool{} // chunks some LockLine has touched
		npages := 3 * g.lines * g.ppl
		for step := 0; step < 3000; step++ {
			page := rng.Intn(npages)
			l, i := c.LineOf(page), c.LineOf(page)*g.ppl+page%g.ppl
			switch op := rng.Intn(100); {
			case op < 40: // refill (evicting whatever the slot held), sometimes straight to dirty
				ln := c.LockLine(l)
				locked[l/64] = true
				s := &ln.Slots()[page%g.ppl]
				if s != c.SlotOf(ln, page) {
					t.Fatalf("%+v: SlotOf(%d) is not slot %d of its locked line", g, page, page%g.ppl)
				}
				ln.BumpGen()
				s.Invalidate()
				s.Page, s.St, s.ReadyAt = page, Clean, int64(step)
				c.PrepareRefill(s)
				if rng.Intn(3) == 0 {
					c.EnsureTwin(s)
					s.St = Dirty
				}
				c.MarkLineUsed(ln)
				ln.Unlock()
				m.gen[l]++
				m.page[i], m.st[i], m.ready[i] = page, s.St, int64(step)
				if !m.used[l] {
					m.used[l] = true
					m.list = append(m.list, l)
				}
			case op < 60: // invalidate one page, retire the line if that emptied it
				ln := c.LockLine(l)
				locked[l/64] = true
				if s := &ln.Slots()[page%g.ppl]; s.Page == page {
					s.Invalidate()
				}
				c.RetireLineIfEmpty(ln)
				ln.Unlock()
				if m.page[i] == page {
					m.page[i], m.st[i] = -1, Invalid
				}
				if empty := !slices.ContainsFunc(m.st[l*g.ppl:(l+1)*g.ppl], func(s State) bool { return s != Invalid }); empty {
					m.used[l] = false
				}
			case op < 75: // what a fence does with the used list
				if got := c.AppendUsedLines(nil); !slices.Equal(got, m.list) {
					t.Fatalf("%+v step %d: used lines %v, want %v", g, step, got, m.list)
				}
				c.CompactUsedList()
				m.list = slices.DeleteFunc(m.list, func(l int) bool { return !m.used[l] })
			case op < 78:
				var flushed []int
				c.InvalidateAll(func(s *Slot) {
					if s.Twin == nil {
						t.Fatalf("%+v step %d: flushed page %d has no twin", g, step, s.Page)
					}
					flushed = append(flushed, s.Page)
				})
				want := m.invalidateAll()
				slices.Sort(flushed)
				slices.Sort(want)
				if !slices.Equal(flushed, want) {
					t.Fatalf("%+v step %d: InvalidateAll flushed %v, want %v", g, step, flushed, want)
				}
			case op < 80:
				c.WBPush(page)
				c.Reset()
				m.invalidateAll()
				if c.WBLen() != 0 {
					t.Fatalf("%+v step %d: Reset left the write buffer at %d", g, step, c.WBLen())
				}
			}
		}
		// Every line that exists matches the model, and the lines that exist
		// are those of the chunks somebody locked.
		seen := map[int]bool{}
		c.ForEachLine(func(l int, slots []Slot) {
			seen[l] = true
			for k := range slots {
				s, i := &slots[k], l*g.ppl+k
				if s.Page != m.page[i] || s.St != m.st[i] || (s.St != Invalid && s.ReadyAt != m.ready[i]) || (s.Twin != nil) != (s.St == Dirty) {
					t.Fatalf("%+v: line %d slot %d = {%d %v ready %d}, want {%d %v ready %d}", g, l, k, s.Page, s.St, s.ReadyAt, m.page[i], m.st[i], m.ready[i])
				}
			}
		})
		for l := 0; l < g.lines; l++ {
			if seen[l] != locked[l/64] {
				t.Fatalf("%+v: line %d exists = %v, its chunk was locked = %v", g, l, seen[l], locked[l/64])
			}
			if seen[l] && c.lineGen(l) != m.gen[l] {
				t.Fatalf("%+v: line %d at generation %d, want %d", g, l, c.lineGen(l), m.gen[l])
			}
		}
	}
}

// Threads of a node first-touch the same and neighbouring lines of a fresh
// cache at once, the way a launch's first misses do. Run under -race.
func TestConcurrentFirstLock(t *testing.T) {
	const workers = 8
	for round := 0; round < 20; round++ {
		c := New(0, 64, 200, 2, 8)
		got := make([][]*LineSync, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, l := range []int{63, 64, 65, 199} {
					ln := c.LockLine(l)
					s := &ln.Slots()[0]
					if s.Page != -1 && s.Page != l*2 {
						t.Errorf("line %d slot 0 holds page %d", l, s.Page)
					}
					s.Page, s.St = l*2, Clean
					c.MarkLineUsed(ln)
					got[w] = append(got[w], ln.sy)
					ln.Unlock()
				}
			}()
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if !slices.Equal(got[w], got[0]) {
				t.Fatalf("round %d: worker %d saw different LineSync addresses", round, w)
			}
		}
		used := c.AppendUsedLines(nil)
		slices.Sort(used)
		if !slices.Equal(used, []int{63, 64, 65, 199}) {
			t.Fatalf("round %d: used lines %v", round, used)
		}
		lines := 0
		c.ForEachLine(func(int, []Slot) { lines++ })
		if lines != 64+64+8 {
			t.Fatalf("round %d: %d lines exist, want the 136 of chunks 0, 1 and 3", round, lines)
		}
	}
}

// emptyLinePool leaves linePool empty — a sync.Pool is emptied by two
// collections — so the package's other tests build their caches from new
// chunks, whose generations start at 0 as their models do.
func emptyLinePool() {
	runtime.GC()
	runtime.GC()
}

// fillLines gives every line of c some state a fresh line does not have: a
// dirty page with data and twin frames, published to tb, a ReadyAt, the used
// flag and a bumped generation.
func fillLines(c *Cache, tb *TLB) {
	for l := 0; l < c.Lines; l++ {
		ln := c.LockLine(l)
		ln.BumpGen()
		for k := range ln.Slots() {
			s := &ln.Slots()[k]
			s.Page, s.St, s.ReadyAt = l*c.PagesPerLine+k, Clean, 99
			c.PrepareRefill(s)
			c.EnsureTwin(s)
			s.St = Dirty
			ln.FillTLB(tb, s)
		}
		c.MarkLineUsed(ln)
		ln.Unlock()
	}
}

// A line chunk freed by one cache and taken by another of a different line
// count and PagesPerLine is fresh on all of its ChunkLen lines: each has its
// own LineSync, no writer on it and a generation that did not go back, is off
// the used list, and has exactly PagesPerLine slots of the new cache, every
// one empty, frameless, unpublished and ready at 0. The first step is from a
// short cache (one trimmed chunk) to a longer one with wider lines, the second
// to narrower lines, which keep the slot array.
func TestRecycledLineChunkIsFresh(t *testing.T) {
	t.Cleanup(emptyLinePool)
	emptyLinePool()
	type geom struct{ lines, ppl int }
	// freed records every LineSync of every chunk a cache freed, those past a
	// short cache's end included (Chunks cuts them off): its chunk's serial
	// number and its generation when freed.
	type freedSync struct{ chunk, gen int }
	freed := map[*LineSync]freedSync{}
	chunks := 0
	for _, step := range []struct{ from, to geom }{{geom{40, 2}, geom{200, 4}}, {geom{200, 4}, geom{100, 1}}} {
		g := step.to
		var c *Cache
		for round := 0; round < 20 && c == nil; round++ {
			prev := New(0, 64, step.from.lines, step.from.ppl, 8)
			fillLines(prev, prev.NewTLB(1))
			prev.lines.Chunks(func(_ int, chunk []Line) {
				whole := chunk[:sparse.ChunkLen]
				for i := range whole {
					freed[whole[i].sy] = freedSync{chunks, int(whole[i].sy.Gen.Load())}
				}
				chunks++
			})
			prev.PutFrames()
			prev.Free()
			if prev.lines.Peek(0) != nil {
				t.Fatal("a line survived Free")
			}
			c = New(0, 64, g.lines, g.ppl, 8)
			ln := c.LockLine(0)
			ln.Unlock()
			if _, ok := freed[ln.sy]; !ok {
				c = nil // a new chunk: the race detector's pool dropped ours
			}
		}
		if c == nil {
			t.Fatalf("%+v: no freed chunk came back in 20 rounds", step)
		}
		first := freed[c.lines.Peek(0).sy].chunk
		for l := 0; l < sparse.ChunkLen; l++ {
			ln := c.LockLine(l)
			was, ok := freed[ln.sy]
			switch {
			case !ok || was.chunk != first:
				t.Fatalf("%+v: line %d has a LineSync its freed chunk did not have", step, l)
			case ln.idx != l || ln.used || len(ln.slots) != g.ppl:
				t.Fatalf("%+v: line %d = {idx %d, used %v, %d slots}", step, l, ln.idx, ln.used, len(ln.slots))
			case ln.sy.Act.Load() != 0 || int(ln.sy.Gen.Load()) < was.gen:
				t.Fatalf("%+v: line %d at Act %d, generation %d after %d", step, l, ln.sy.Act.Load(), ln.sy.Gen.Load(), was.gen)
			}
			for k := range ln.slots {
				if s := &ln.slots[k]; s.Page != -1 || s.St != Invalid || s.ReadyAt != 0 || s.Data != nil || s.Twin != nil || s.twinBuf != nil || s.published {
					t.Fatalf("%+v: line %d slot %d = {page %d, %v, ready %d, data %v, twin %v, twin buffer %v, published %v}",
						step, l, k, s.Page, s.St, s.ReadyAt, s.Data != nil, s.Twin != nil, s.twinBuf != nil, s.published)
				}
			}
			if s := c.SlotOf(ln, l*g.ppl+g.ppl-1); s != &ln.slots[g.ppl-1] {
				t.Fatalf("%+v: SlotOf maps the last page of line %d elsewhere", step, l)
			}
			ln.Unlock()
		}
	}
}

// A TLB handed back by Release comes out of NewTLB flushed and set to the new
// cache's page geometry and hit cost: it misses on every page the old one
// held. Releasing the nil TLB a page size without one gets does nothing.
func TestPooledTLBMissesEverywhere(t *testing.T) {
	New(0, 4, 4, 2, 16).NewTLB(1).Release()
	for round := 0; round < 20; round++ {
		c := New(0, 4096, 8, 4, 16)
		old := c.NewTLB(1)
		fillLines(c, old)
		p := &sim.Proc{}
		if _, ok := old.Load(p, 8); !ok {
			t.Fatal("test vacuous: the filled TLB misses")
		}
		old.Release()
		tb := New(0, 8192, 8, 4, 16).NewTLB(3)
		if tb != old {
			continue // dropped by the race detector's pool
		}
		if tb.shift != 13 || tb.mask != 8191 || tb.hit != 3 {
			t.Fatalf("recycled TLB has shift %d, mask %d, hit %d", tb.shift, tb.mask, tb.hit)
		}
		for i := range tb.e {
			if tb.e[i] != (TLBEntry{Page: -1}) {
				t.Fatalf("recycled TLB entry %d = %+v", i, tb.e[i])
			}
		}
		for page := 0; page < c.Lines*c.PagesPerLine; page++ {
			a := int64(page) * 4096
			if _, ok := tb.Load(p, a); ok || tb.Store(p, a, 1) {
				t.Fatalf("recycled TLB hit page %d", page)
			}
		}
		if p.Hits != 1 || p.Now() != 1 {
			t.Fatalf("misses charged the proc: %d hits, now %d", p.Hits, p.Now())
		}
		return
	}
	t.Fatal("a released TLB never came back in 20 rounds")
}
