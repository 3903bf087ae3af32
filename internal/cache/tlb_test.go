package cache

import (
	"testing"
)

func TestTLBEntryMappingAndFlush(t *testing.T) {
	tb := NewTLB()
	for i := 0; i < TLBSize; i++ {
		if tb.Entry(i).Page != -1 {
			t.Fatalf("fresh TLB entry %d not empty", i)
		}
	}
	// Pages that alias the same direct-mapped set share one entry.
	if tb.Entry(3) != tb.Entry(3+TLBSize) {
		t.Fatal("aliasing pages map to different entries")
	}
	if tb.Entry(3) == tb.Entry(4) {
		t.Fatal("distinct sets share an entry")
	}
	tb.Entry(3).Page = 3
	tb.Flush()
	if tb.Entry(3).Page != -1 {
		t.Fatal("Flush left a live entry")
	}
}

func TestBumpLineGenIncrementsAndDrains(t *testing.T) {
	c := New(0, 4096, 4, 2, 16)
	g0 := c.LineGen(1)
	c.BumpLineGen(1)
	if g := c.LineGen(1); g != g0+1 {
		t.Fatalf("gen after bump = %d, want %d", g, g0+1)
	}
	if c.LineGen(2) != 0 {
		t.Fatal("bump leaked to another line")
	}
	// With an in-flight fast store registered, the bump must not return
	// until the presence counter drains.
	sy := c.Sync(1)
	sy.Act.Add(1)
	done := make(chan struct{})
	go func() {
		c.BumpLineGen(1)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("BumpLineGen returned with Act > 0")
	default:
	}
	sy.Act.Add(-1)
	<-done
	if g := c.LineGen(1); g != g0+2 {
		t.Fatalf("gen after drained bump = %d, want %d", g, g0+2)
	}
}

func TestFillTLBGuards(t *testing.T) {
	c := New(0, 4096, 4, 2, 16)
	tb := NewTLB()

	// Invalid slot: never published.
	l := c.LineOf(5)
	s := c.SlotFor(5)
	FillTLB := func() { c.FillTLB(tb, l, s) }
	FillTLB()
	if tb.Entry(5).Page != -1 {
		t.Fatal("invalid slot published to TLB")
	}

	// Valid slot: published with the line's current generation and state.
	s.Page = 5
	s.St = Dirty
	c.PrepareRefill(s)
	FillTLB()
	e := tb.Entry(5)
	if e.Page != 5 || !e.Dirty || e.Sync != c.Sync(l) || e.G != c.LineGen(l) {
		t.Fatalf("bad TLB fill: %+v", e)
	}

	// Nil TLB (disabled, or a non-thread internal access): no-op.
	c.FillTLB(nil, l, s)

	// Reset wipes slots and advances every line's generation, so published
	// entries fail validation afterwards.
	g := c.LineGen(l)
	c.Reset()
	if c.LineGen(l) != g+1 {
		t.Fatalf("Reset did not bump line gen: %d -> %d", g, c.LineGen(l))
	}
	if e.Sync.Gen.Load() == e.G {
		t.Fatal("published entry still validates after Reset")
	}
}

func TestWordAligned(t *testing.T) {
	b := make([]byte, 64)
	// make([]byte) is 8-byte aligned on all supported platforms.
	if !WordAligned(b) {
		t.Fatal("fresh allocation not word-aligned")
	}
	if WordAligned(b[1:]) {
		t.Fatal("offset slice reported aligned")
	}
	if WordAligned(nil) {
		t.Fatal("empty slice reported aligned")
	}
}
