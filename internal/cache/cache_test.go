package cache

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"argo/internal/mem"
	"argo/internal/racetag"
)

func testCache() *Cache { return New(0, 4096, 8, 4, 16) }

func TestGeometry(t *testing.T) {
	c := testCache()
	// Pages 0..3 share line 0; pages 32,33 live in line 0 of the next wrap.
	if c.LineOf(0) != 0 || c.LineOf(3) != 0 || c.LineOf(4) != 1 {
		t.Fatal("line mapping broken")
	}
	if c.LineOf(32) != 0 {
		t.Fatalf("direct mapping should wrap: line of page 32 = %d", c.LineOf(32))
	}
	if c.LineBase(7) != 4 || c.LineBase(4) != 4 {
		t.Fatal("line base broken")
	}
}

// The seqlock states of a chunk's lines are a padded array of their own: 64
// bytes apart, 64-byte aligned, away from the line mutexes.
func TestLineSyncLayout(t *testing.T) {
	c := New(0, 4096, 100, 2, 16)
	for _, l := range []int{0, 1, 63, 64, 99} {
		ln := c.LockLine(l)
		defer ln.Unlock()
		sy := uintptr(unsafe.Pointer(ln.sy))
		if sy%64 != 0 {
			t.Fatalf("line %d: LineSync at %#x is not 64-byte aligned", l, sy)
		}
		if l%64 != 0 && sy-uintptr(unsafe.Pointer(c.lines.At(l-1).sy)) != 64 {
			t.Fatalf("line %d: LineSync is not 64 bytes after line %d's", l, l-1)
		}
	}
}

func TestSlotForDistinctWithinLine(t *testing.T) {
	c := testCache()
	ln := c.LockLine(0)
	defer ln.Unlock()
	s0 := c.SlotOf(ln, 0)
	s1 := c.SlotOf(ln, 1)
	if s0 == s1 {
		t.Fatal("pages of one line share a slot")
	}
	if got := c.SlotOf(ln, 32); got != s0 {
		t.Fatal("conflicting page does not map to the same slot")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero lines")
		}
	}()
	New(0, 4096, 0, 4, 16)
}

func TestPrepareRefillAndTwin(t *testing.T) {
	c := testCache()
	ln := c.LockLine(0)
	s := c.SlotOf(ln, 0)
	c.PrepareRefill(s)
	if len(s.Data) != 4096 {
		t.Fatal("data buffer wrong size")
	}
	s.Data[5] = 42
	c.EnsureTwin(s)
	if s.Twin[5] != 42 {
		t.Fatal("twin is not a snapshot of data")
	}
	s.Data[5] = 43
	if s.Twin[5] != 42 {
		t.Fatal("twin aliases data")
	}
	twin := &s.Twin[0]
	s.DropTwin()
	if s.Twin != nil {
		t.Fatal("twin not dropped")
	}
	// The next write miss snapshots into the same buffer: nothing is handed
	// to the GC between a downgrade and the page's next write miss, and an
	// invalidation in between does not lose the buffer either.
	s.Invalidate()
	c.EnsureTwin(s)
	if &s.Twin[0] != twin || s.Twin[5] != 43 {
		t.Fatal("twin buffer not recycled as a fresh snapshot")
	}
	ln.Unlock()
}

// TestPrepareRefillRecyclesBuffer pins the published-bit rule: a buffer no
// TLB entry has captured is refilled in place in every build; a published one
// is refilled in place too, except under the race detector, where the stale
// entries keep it and the refill gets a fresh, unpublished buffer.
func TestPrepareRefillRecyclesBuffer(t *testing.T) {
	c := testCache()
	ln := c.LockLine(0)
	defer ln.Unlock()
	s := c.SlotOf(ln, 0)
	c.PrepareRefill(s)
	buf := &s.Data[0]
	s.Invalidate()
	s.Page = 32 // a conflicting page rebinds the unpublished buffer
	c.PrepareRefill(s)
	if &s.Data[0] != buf {
		t.Fatal("unpublished buffer not reused in place")
	}
	s.St = Clean
	tb := c.NewTLB(1)
	ln.FillTLB(tb, s)
	if !s.published {
		t.Fatal("FillTLB did not mark the buffer published")
	}
	s.Invalidate()
	s.Page = 0
	c.PrepareRefill(s)
	if fresh := &s.Data[0] != buf; fresh != racetag.Enabled {
		t.Fatalf("published buffer replaced = %v, want %v (race build = %v)", fresh, racetag.Enabled, racetag.Enabled)
	}
	if racetag.Enabled && s.published {
		t.Fatal("fresh buffer still marked published")
	}
	if (*byte)(tb.Entry(32).Base) != buf {
		t.Fatal("stale TLB entry lost its buffer")
	}
}

// TestRefillCopiesOnlyAChange: a slot that alternates between two pages
// keeps the one it evicts in its spare and copies neither again while their
// homes stand still (a race-detector build, which has no spare, copies at
// each alternation); a home write, a write miss and a crash wipe each make
// the next refill copy. Every refill leaves Data equal to the home page, and
// Free hands the spare back.
func TestRefillCopiesOnlyAChange(t *testing.T) {
	sp := mem.NewSpace(1, 4*4096, 4096, mem.Interleaved)
	sp.WritePageFull(0, bytes.Repeat([]byte{10}, 4096))
	sp.WritePageFull(1, bytes.Repeat([]byte{11}, 4096))
	c := New(0, 4096, 1, 1, 16) // pages 0 and 1 share the one slot
	ln := c.LockLine(0)
	s := c.SlotOf(ln, 0)
	ln.Unlock()
	refill := func(page int, wantCopy bool) {
		t.Helper()
		ln := c.LockLine(0)
		defer ln.Unlock()
		ln.BumpGen()
		s.Invalidate()
		s.Page = page
		c.PrepareRefill(s)
		if copied := s.Refill(sp); copied != wantCopy {
			t.Fatalf("refill of page %d copied = %v, want %v", page, copied, wantCopy)
		}
		home := make([]byte, 4096)
		sp.ReadPage(page, home)
		if !bytes.Equal(s.Data, home) {
			t.Fatalf("refill of page %d does not hold the home page", page)
		}
		s.St = Clean
	}
	refill(0, true)
	refill(1, true)
	if racetag.Enabled != (s.spare == nil) {
		t.Fatalf("spare taken = %v in a race build = %v", s.spare != nil, racetag.Enabled)
	}
	refill(0, racetag.Enabled)
	refill(1, racetag.Enabled)
	sp.WritePageFull(0, bytes.Repeat([]byte{20}, 4096))
	refill(0, true)
	refill(0, false) // in the current frame, as after an SI fence: no build copies
	ln = c.LockLine(0)
	c.EnsureTwin(s)
	s.Data[0] = 99 // a local write the wipe loses: home does not move
	ln.Unlock()
	refill(0, true)
	refill(1, racetag.Enabled)
	refill(0, racetag.Enabled)
	c.Reset()
	refill(1, true)
	refill(0, true)
	// Free hands the spare back with the data and twin frames.
	t.Cleanup(emptyLinePool)
	var held []*byte
	for _, f := range [][]byte{s.Data, s.twinBuf, s.spare} {
		if f != nil {
			held = append(held, &f[0])
		}
	}
	c.Free()
	for range held {
		if f := &mem.GetFrame(4096)[0]; !slices.Contains(held, f) {
			t.Fatalf("frame %p after Free, want one of the slot's %v", f, held)
		}
	}
}

func TestWriteBufferFIFO(t *testing.T) {
	c := New(0, 4096, 8, 4, 3)
	for pg := 0; pg < 3; pg++ {
		if _, evict := c.WBPush(pg); evict {
			t.Fatalf("premature eviction at page %d", pg)
		}
	}
	victim, evict := c.WBPush(3)
	if !evict || victim != 0 {
		t.Fatalf("eviction = %v victim = %d, want oldest (0)", evict, victim)
	}
	victim, evict = c.WBPush(4)
	if !evict || victim != 1 {
		t.Fatalf("second eviction victim = %d, want 1", victim)
	}
	got := c.WBDrain()
	want := []int{2, 3, 4}
	if len(got) != 3 {
		t.Fatalf("drain = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
	if c.WBLen() != 0 {
		t.Fatal("drain did not empty the buffer")
	}
}

func TestWBCapacityClamp(t *testing.T) {
	c := New(0, 4096, 2, 1, 0)
	if c.wbCap != 1 {
		t.Fatalf("zero capacity not clamped: %d", c.wbCap)
	}
}

// Property: pushing n pages evicts exactly max(0, n-cap) in FIFO order.
func TestWBEvictionProperty(t *testing.T) {
	f := func(n uint8, capU uint8) bool {
		capacity := int(capU)%32 + 1
		c := New(0, 4096, 4, 2, capacity)
		var evicted []int
		for pg := 0; pg < int(n); pg++ {
			if v, e := c.WBPush(pg); e {
				evicted = append(evicted, v)
			}
		}
		want := int(n) - capacity
		if want < 0 {
			want = 0
		}
		if len(evicted) != want {
			return false
		}
		for i, v := range evicted {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ForEachLine visits the lines of every chunk somebody has touched — all of
// them, holding a page or not — and no line of an untouched chunk.
func TestForEachLineVisitsTouched(t *testing.T) {
	c := New(0, 4096, 200, 4, 16)
	visit := func() (lines []int) {
		c.ForEachLine(func(l int, slots []Slot) {
			if len(slots) != 4 {
				t.Fatalf("line %d has %d slots", l, len(slots))
			}
			lines = append(lines, l)
		})
		return lines
	}
	if got := visit(); got != nil {
		t.Fatalf("fresh cache visited lines %v", got)
	}
	c.LockLine(70).Unlock()
	c.LockLine(199).Unlock()
	var want []int
	for l := 64; l < 128; l++ {
		want = append(want, l)
	}
	for l := 192; l < 200; l++ {
		want = append(want, l)
	}
	if got := visit(); !slices.Equal(got, want) {
		t.Fatalf("visited %v, want the lines of chunks 1 and 3", got)
	}
}

func TestReset(t *testing.T) {
	c := testCache()
	ln := c.LockLine(0)
	s := c.SlotOf(ln, 1)
	s.Page = 1
	s.St = Dirty
	c.PrepareRefill(s)
	c.EnsureTwin(s)
	s.ReadyAt = 99
	c.MarkLineUsed(ln) // as every fill does: Reset walks the occupied lines
	ln.Unlock()
	c.WBPush(1)
	c.Reset()
	ln = c.LockLine(0)
	s = c.SlotOf(ln, 1)
	if s.Page != -1 || s.St != Invalid || s.Twin != nil || s.ReadyAt != 0 {
		t.Fatalf("reset left state: %+v", s)
	}
	ln.Unlock()
	if c.WBLen() != 0 {
		t.Fatal("reset left write-buffer entries")
	}
}

// Reset empties the used list with the lines: a fence after a crash wipe or a
// relaunch must not snapshot (and lock) lines that hold nothing.
func TestResetClearsUsedTracking(t *testing.T) {
	c := New(0, 4096, 200, 2, 16)
	touched := []int{3, 70, 71, 199}
	for _, l := range touched {
		ln := c.LockLine(l)
		s := &ln.Slots()[0]
		s.Page, s.St = l*c.PagesPerLine, Clean
		c.MarkLineUsed(ln)
		ln.Unlock()
	}
	if got := c.AppendUsedLines(nil); !slices.Equal(got, touched) {
		t.Fatalf("used lines %v, want %v", got, touched)
	}
	c.Reset()
	if got := c.AppendUsedLines(nil); len(got) != 0 {
		t.Fatalf("Reset left used lines %v", got)
	}
	// A line filled after the reset is tracked again, once.
	ln := c.LockLine(70)
	ln.Slots()[0].Page, ln.Slots()[0].St = 140, Clean
	c.MarkLineUsed(ln)
	ln.Unlock()
	if got := c.AppendUsedLines(nil); !slices.Equal(got, []int{70}) {
		t.Fatalf("used lines after refill %v, want [70]", got)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Clean.String() != "C" || Dirty.String() != "D" {
		t.Fatal("state names wrong")
	}
}

func TestUsedLineTracking(t *testing.T) {
	c := testCache()
	seen := 0
	c.forEachUsedLine(func(*Line) { seen++ })
	if seen != 0 {
		t.Fatalf("fresh cache has %d used lines", seen)
	}
	// Populate lines 1 and 3.
	for _, l := range []int{1, 3} {
		ln := c.LockLine(l)
		s := c.SlotOf(ln, l*c.PagesPerLine)
		s.Page = l * c.PagesPerLine
		s.St = Clean
		c.PrepareRefill(s)
		c.MarkLineUsed(ln)
		ln.Unlock()
	}
	var visited []int
	c.forEachUsedLine(func(ln *Line) { visited = append(visited, ln.idx) })
	if len(visited) != 2 {
		t.Fatalf("visited %v, want lines 1 and 3", visited)
	}
	// Empty line 1 during a sweep: it must be retired.
	c.forEachUsedLine(func(ln *Line) {
		if ln.idx == 1 {
			for i := range ln.slots {
				ln.slots[i].Invalidate()
			}
		}
	})
	visited = nil
	c.forEachUsedLine(func(ln *Line) { visited = append(visited, ln.idx) })
	if len(visited) != 1 || visited[0] != 3 {
		t.Fatalf("after retirement visited %v, want [3]", visited)
	}
	// Re-marking a retired line brings it back exactly once.
	ln := c.LockLine(1)
	s := c.SlotOf(ln, c.PagesPerLine)
	s.Page = c.PagesPerLine
	s.St = Clean
	c.MarkLineUsed(ln)
	c.MarkLineUsed(ln) // idempotent
	ln.Unlock()
	visited = nil
	c.forEachUsedLine(func(ln *Line) { visited = append(visited, ln.idx) })
	if len(visited) != 2 {
		t.Fatalf("after re-mark visited %v", visited)
	}
}

func TestLineSlotsView(t *testing.T) {
	c := testCache()
	ln := c.LockLine(2)
	c.SlotOf(ln, 2*c.PagesPerLine).Page = 2 * c.PagesPerLine
	view := ln.Slots()
	if len(view) != c.PagesPerLine || view[0].Page != 2*c.PagesPerLine {
		t.Fatalf("Slots view wrong: %+v", view[0])
	}
	ln.Unlock()
}

func TestWBClearAndDrain(t *testing.T) {
	c := New(0, 4096, 8, 2, 64)
	for i := 0; i < 5; i++ {
		c.WBPush(i)
	}
	if got := c.WBDrain(); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("WBDrain = %v, want [0 1 2 3 4]", got)
	}
	if c.WBDrain() != nil {
		t.Fatal("WBDrain on empty buffer returned entries")
	}
	for i := 10; i < 14; i++ {
		c.WBPush(i)
	}
	if got := c.WBClear(); got != 4 {
		t.Fatalf("WBClear = %d, want 4", got)
	}
	if c.WBLen() != 0 {
		t.Fatal("buffer not empty after WBClear")
	}
	// The cleared buffer keeps working FIFO.
	c.WBPush(42)
	if got := c.WBDrain(); !slices.Equal(got, []int{42}) {
		t.Fatalf("push after clear: WBDrain = %v, want [42]", got)
	}
}

// TestWBRingWrapAround drives the fixed ring through many wraps with every
// operation interleaved and checks it against a plain slice FIFO, including
// the overflow victims' order and stale (duplicate) entries.
func TestWBRingWrapAround(t *testing.T) {
	const capacity = 5
	c := New(0, 4096, 8, 2, capacity)
	var model []int
	same := func(op string, got, want []int) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s = %v, want %v", op, got, want)
		}
	}
	for step := 0; step < 400; step++ {
		page := step % 7 // repeats: the buffer holds duplicates like stale entries
		victim, evict := c.WBPush(page)
		model = append(model, page)
		if len(model) > capacity {
			if !evict || victim != model[0] {
				t.Fatalf("step %d: overflow victim = %d (%v), want %d", step, victim, evict, model[0])
			}
			model = model[1:]
		} else if evict {
			t.Fatalf("step %d: eviction below capacity", step)
		}
		switch {
		case step%37 == 36:
			same("WBDrain", c.WBDrain(), model)
			model = nil
		case step%53 == 52:
			if n := c.WBClear(); n != len(model) {
				t.Fatalf("WBClear = %d, want %d", n, len(model))
			}
			model = nil
		}
		if c.WBLen() != len(model) {
			t.Fatalf("step %d: WBLen = %d, want %d", step, c.WBLen(), len(model))
		}
	}
	same("final WBDrain", c.WBDrain(), model)
	if c.WBDrain() != nil {
		t.Fatal("WBDrain of an empty buffer returned entries")
	}
}

// TestWBRingGrowsWithUse: a new cache has no ring; pushes grow it through
// its doublings, with every entry kept in FIFO order, up to capacity+1 and no
// further, after which pushes overflow oldest first. Clearing keeps the ring
// it grew. A capacity of 1 grows straight to its two entries.
func TestWBRingGrowsWithUse(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		lens     []int // ring lengths seen, in order
	}{
		{1, []int{2}},
		{100, []int{16, 32, 64, 101}},
	} {
		c := New(0, 4096, 8, 2, tc.capacity)
		if c.wbRing != nil {
			t.Fatalf("cap %d: ring of %d allocated before any push", tc.capacity, len(c.wbRing))
		}
		var model, lens []int
		for page := 0; page < 3*tc.capacity+7; page++ {
			victim, evict := c.WBPush(page)
			model = append(model, page)
			if len(model) > tc.capacity {
				if !evict || victim != model[0] {
					t.Fatalf("cap %d push %d: victim %d (%v), want %d", tc.capacity, page, victim, evict, model[0])
				}
				model = model[1:]
			} else if evict {
				t.Fatalf("cap %d push %d: eviction below capacity", tc.capacity, page)
			}
			if n := len(c.wbRing); len(lens) == 0 || lens[len(lens)-1] != n {
				lens = append(lens, n)
			}
		}
		if !slices.Equal(lens, tc.lens) {
			t.Fatalf("cap %d: ring grew through lengths %v, want %v", tc.capacity, lens, tc.lens)
		}
		if got := c.WBDrain(); !slices.Equal(got, model) {
			t.Fatalf("cap %d: drained %v, want %v", tc.capacity, got, model)
		}
		c.WBPush(7)
		if c.WBClear() != 1 || len(c.wbRing) != tc.capacity+1 {
			t.Fatalf("cap %d: WBClear lost the count or the ring (%d long)", tc.capacity, len(c.wbRing))
		}
	}
}

func TestWBPushZeroAlloc(t *testing.T) {
	c := New(0, 4096, 8, 2, 4)
	page := 0
	if a := testing.AllocsPerRun(100, func() { c.WBPush(page); page++ }); a != 0 {
		t.Fatalf("WBPush allocated %.1f times per call, want 0", a)
	}
}

func TestUsedLinesSnapshotAndRetire(t *testing.T) {
	c := New(0, 4096, 8, 2, 64)
	for _, l := range []int{3, 1} {
		ln := c.LockLine(l)
		s := &ln.Slots()[0]
		s.Page = l * c.PagesPerLine
		s.St = Clean
		c.MarkLineUsed(ln)
		ln.Unlock()
	}
	if got := c.AppendUsedLines(nil); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("AppendUsedLines = %v, want [3 1] (first-use order)", got)
	}
	// It appends to the caller's buffer: what is there stays, and a buffer
	// with room is filled in place.
	buf := make([]int, 1, 8)
	buf[0] = 42
	if got := c.AppendUsedLines(buf); len(got) != 3 || got[0] != 42 || got[1] != 3 || got[2] != 1 || &got[0] != &buf[0] {
		t.Fatalf("AppendUsedLines(buf) = %v, want [42 3 1] in buf's own storage", got)
	}
	// Retire line 3 after emptying it; the snapshot compacts.
	ln := c.LockLine(3)
	ln.Slots()[0].Invalidate()
	c.RetireLineIfEmpty(ln)
	ln.Unlock()
	c.CompactUsedList()
	if got := c.AppendUsedLines(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AppendUsedLines after retire = %v, want [1]", got)
	}
	// A non-empty line does not retire.
	ln = c.LockLine(1)
	c.RetireLineIfEmpty(ln)
	ln.Unlock()
	c.CompactUsedList()
	if got := c.AppendUsedLines(nil); len(got) != 1 {
		t.Fatalf("occupied line retired: %v", got)
	}
}

// Free hands back every slot's data and twin frame — whatever state the slot
// is in — and leaves no line behind; a cache built afterwards takes exactly
// those frames for the same refills and write misses instead of allocating.
func TestFramePutFramesEmptiesSlots(t *testing.T) {
	t.Cleanup(emptyLinePool) // the other tests' models expect new line chunks
	fill := func(c *Cache) {
		for _, page := range []int{0, 1, 5, 40} {
			ln := c.LockLine(c.LineOf(page))
			s := c.SlotOf(ln, page)
			s.Page = page
			c.PrepareRefill(s)
			s.St = Clean
			if page != 5 {
				c.EnsureTwin(s)
				s.St = Dirty
			}
			if page == 40 {
				s.DropTwin()
				s.Invalidate()
			}
			ln.Unlock()
		}
	}
	// framesOf lists the addresses of the data and twin frames c's slots hold.
	framesOf := func(c *Cache) (fs []uintptr) {
		c.ForEachLine(func(_ int, slots []Slot) {
			for _, s := range slots {
				for _, f := range [][]byte{s.Data, s.twinBuf} {
					if f != nil {
						fs = append(fs, uintptr(unsafe.Pointer(&f[0])))
					}
				}
			}
		})
		slices.Sort(fs)
		return fs
	}
	c := testCache()
	fill(c)
	tb := c.NewTLB(1)
	ln := c.LockLine(0)
	ln.FillTLB(tb, c.SlotOf(ln, 0))
	ln.Unlock()
	held := framesOf(c)
	if len(held) != 7 {
		t.Fatalf("the slots hold %d frames, want 4 data and 3 twin frames", len(held))
	}
	c.Free()
	lines := 0
	c.ForEachLine(func(int, []Slot) { lines++ })
	if lines != 0 {
		t.Fatalf("Free left %d lines", lines)
	}
	// The same refills and write misses in a new cache take exactly those
	// frames, so they make none. (A count of allocated bytes would also count
	// the runtime's own allocations, which under load read 5 248 bytes while
	// no other goroutine ran.)
	c2 := New(0, 4096, 8, 4, 16)
	fill(c2)
	if got := framesOf(c2); !slices.Equal(got, held) {
		t.Fatalf("refilling took frames %x, want the %d the closed cache's slots held: %x", got, len(held), held)
	}
	c2.Free()
}
