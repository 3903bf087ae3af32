package cache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
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
