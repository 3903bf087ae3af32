package cache

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"argo/internal/sim"
)

func TestTLBEntryMappingAndFlush(t *testing.T) {
	tb := New(0, 4096, 4, 2, 16).NewTLB(1)
	for i := 0; i < tlbSize; i++ {
		if tb.Entry(i).Page != -1 {
			t.Fatalf("fresh TLB entry %d not empty", i)
		}
	}
	// Pages that alias the same direct-mapped set share one entry.
	if tb.Entry(3) != tb.Entry(3+tlbSize) {
		t.Fatal("aliasing pages map to different entries")
	}
	if tb.Entry(3) == tb.Entry(4) {
		t.Fatal("distinct sets share an entry")
	}
	tb.Entry(3).Page = 3
	tb.flush()
	if tb.Entry(3).Page != -1 {
		t.Fatal("Flush left a live entry")
	}
}

func TestBumpLineGenIncrementsAndDrains(t *testing.T) {
	c := New(0, 4096, 4, 2, 16)
	ln := c.LockLine(1)
	defer ln.Unlock()
	g0 := c.lineGen(1)
	ln.BumpGen()
	if g := c.lineGen(1); g != g0+1 {
		t.Fatalf("gen after bump = %d, want %d", g, g0+1)
	}
	if c.lineGen(2) != 0 {
		t.Fatal("bump leaked to another line")
	}
	// With an in-flight fast store registered, the bump must not return
	// until the presence counter drains.
	sy := ln.sy
	sy.Act.Add(1)
	done := make(chan struct{})
	go func() {
		ln.BumpGen()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("BumpGen returned with Act > 0")
	default:
	}
	sy.Act.Add(-1)
	<-done
	if g := c.lineGen(1); g != g0+2 {
		t.Fatalf("gen after drained bump = %d, want %d", g, g0+2)
	}
}

func TestFillTLBGuards(t *testing.T) {
	c := New(0, 4096, 4, 2, 16)
	tb := c.NewTLB(1)

	// Invalid slot: never published.
	l := c.LineOf(5)
	ln := c.LockLine(l)
	s := c.SlotOf(ln, 5)
	FillTLB := func() { ln.FillTLB(tb, s) }
	FillTLB()
	if tb.Entry(5).Page != -1 {
		t.Fatal("invalid slot published to TLB")
	}

	// Valid slot: published with the line's current generation and state.
	s.Page = 5
	s.St = Dirty
	c.PrepareRefill(s)
	c.MarkLineUsed(ln)
	FillTLB()
	e := tb.Entry(5)
	if e.Page != 5 || !e.Dirty || e.Sync != ln.sy || e.G != c.lineGen(l) {
		t.Fatalf("bad TLB fill: %+v", e)
	}

	// Nil TLB (disabled, or a non-thread internal access): no-op.
	ln.FillTLB(nil, s)

	// Reset wipes slots and advances every occupied line's generation, so
	// published entries fail validation afterwards.
	g := c.lineGen(l)
	ln.Unlock()
	c.Reset()
	if c.lineGen(l) != g+1 {
		t.Fatalf("Reset did not bump line gen: %d -> %d", g, c.lineGen(l))
	}
	if e.Sync.Gen.Load() == e.G {
		t.Fatal("published entry still validates after Reset")
	}
}

func TestWordAligned(t *testing.T) {
	b := make([]byte, 64)
	// make([]byte) is 8-byte aligned on all supported platforms.
	if !wordAligned(b) {
		t.Fatal("fresh allocation not word-aligned")
	}
	if wordAligned(b[1:]) {
		t.Fatal("offset slice reported aligned")
	}
	if wordAligned(nil) {
		t.Fatal("empty slice reported aligned")
	}
}

// TestTLBLoadStore drives the two fast-path methods directly: what counts as
// a hit, that a hit charges the proc exactly one hit and the built-in cost,
// and that every kind of miss leaves the proc untouched for the locked path.
func TestTLBLoadStore(t *testing.T) {
	const hit = 7
	c := New(0, 4096, 4, 2, 16)
	if tiny := New(0, 4, 4, 2, 16).NewTLB(hit); tiny != nil {
		t.Fatal("a page size that is not a multiple of 8 got a TLB")
	}
	tb, p := c.NewTLB(hit), &sim.Proc{}
	ln := c.LockLine(c.LineOf(5))
	defer ln.Unlock()
	s := c.SlotOf(ln, 5)
	s.Page, s.St = 5, Clean
	c.PrepareRefill(s)
	binary.LittleEndian.PutUint64(s.Data[16:], 77)
	addr := int64(5*4096 + 16)

	untouched := func(what string) {
		t.Helper()
		if p.Now() != 0 || p.Hits != 0 {
			t.Fatalf("%s moved the proc: now %d, hits %d", what, p.Now(), p.Hits)
		}
	}
	if _, ok := tb.Load(p, addr); ok {
		t.Fatal("Load hit a vacant entry")
	}
	if _, ok := (*TLB)(nil).Load(p, addr); ok || (*TLB)(nil).Store(p, addr, 1) {
		t.Fatal("a nil TLB hit")
	}
	ln.FillTLB(tb, s)
	if _, ok := tb.Load(p, addr+1); ok {
		t.Fatal("Load hit an unaligned address")
	}
	if tb.Store(p, addr, 1) {
		t.Fatal("Store hit an entry filled while the page was clean")
	}
	untouched("a miss")

	if v, ok := tb.Load(p, addr); !ok || v != 77 {
		t.Fatalf("Load = %d, %v, want 77, true", v, ok)
	}
	if p.Now() != hit || p.Hits != 1 {
		t.Fatalf("read hit charged now %d, hits %d, want %d, 1", p.Now(), p.Hits, hit)
	}
	s.St = Dirty
	ln.FillTLB(tb, s)
	if !tb.Store(p, addr, 78) || binary.LittleEndian.Uint64(s.Data[16:]) != 78 {
		t.Fatal("Store missed a dirty entry, or stored elsewhere")
	}
	if p.Now() != 2*hit || p.Hits != 2 || ln.sy.Act.Load() != 0 {
		t.Fatalf("write hit left now %d, hits %d, Act %d, want %d, 2, 0", p.Now(), p.Hits, ln.sy.Act.Load(), 2*hit)
	}

	// A bump makes both paths miss, and Store retracts its announcement.
	ln.BumpGen()
	if _, ok := tb.Load(p, addr); ok || tb.Store(p, addr, 79) {
		t.Fatal("a stale entry hit")
	}
	if p.Now() != 2*hit || p.Hits != 2 || ln.sy.Act.Load() != 0 || binary.LittleEndian.Uint64(s.Data[16:]) != 78 {
		t.Fatal("a stale-entry miss moved the proc, stored, or left Act raised")
	}
}

// TestTLBSpMV drives the fused product directly: each row is summed left to
// right from zero with the bits of a one-row loop over Load; the first row
// that reads a page whose entry Load would miss on, or an index outside x's
// pages, stops the call — SpMV returns that row, charges nothing for it and,
// with no generation moving during the call (none does here), writes nothing
// from it on — and p is left where one Load per element of the completed rows
// leaves it. The discarded call of a generation that moves mid-call is the
// seqlock hammer's (TestSeqlockConflictRefillHammer in internal/coherence).
func TestTLBSpMV(t *testing.T) {
	const hit = 7
	c := New(0, 4096, 4, 2, 16)
	tb := c.NewTLB(hit)
	// Page 5 is resident with word i holding float64(i); page 6 is not. Page
	// 7, in another line (and another TLB entry), holds 1024 in its word 0:
	// index 1024 from page 5's base.
	ln := c.LockLine(c.LineOf(5))
	defer ln.Unlock()
	s := c.SlotOf(ln, 5)
	s.Page, s.St = 5, Clean
	c.PrepareRefill(s)
	for i := 0; i < 512; i++ {
		binary.LittleEndian.PutUint64(s.Data[8*i:], math.Float64bits(float64(i)))
	}
	ln.FillTLB(tb, s)
	ln7 := c.LockLine(c.LineOf(7))
	defer ln7.Unlock()
	s7 := c.SlotOf(ln7, 7)
	s7.Page, s7.St = 7, Clean
	c.PrepareRefill(s7)
	binary.LittleEndian.PutUint64(s7.Data, math.Float64bits(1024))
	ln7.FillTLB(tb, s7)

	const mark = -1.5
	spmv := func(what string, tb *TLB, base int64, n int, rows [][]int32, lo, want int) {
		t.Helper()
		rowPtr, colIdx, val := []int32{0}, []int32(nil), []float64(nil)
		for _, r := range rows {
			for _, j := range r {
				colIdx = append(colIdx, j)
				val = append(val, 1/float64(3+len(val))) // inexact, so add order shows
			}
			rowPtr = append(rowPtr, int32(len(colIdx)))
		}
		q := make([]float64, len(rows)-lo+1)
		for k := range q {
			q[k] = mark
		}
		gp, lp := &sim.Proc{}, &sim.Proc{}
		done := tb.SpMV(gp, base, n, rowPtr, colIdx, val, lo, len(rows), q)
		if done != want {
			t.Fatalf("%s: SpMV completed rows [%d,%d), want [%d,%d)", what, lo, done, lo, want)
		}
		for i := lo; i < done; i++ {
			var acc float64
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				v, ok := tb.Load(lp, base+8*int64(colIdx[k]))
				if !ok || v != math.Float64bits(float64(colIdx[k])) {
					t.Fatalf("%s: row %d: Load of %d = %#x, %v", what, i, colIdx[k], v, ok)
				}
				acc += val[k] * math.Float64frombits(v)
			}
			if math.Float64bits(q[i-lo]) != math.Float64bits(acc) {
				t.Fatalf("%s: row %d = %x, the one-row loop over Load %x", what, i, math.Float64bits(q[i-lo]), math.Float64bits(acc))
			}
		}
		if gp.Hits != lp.Hits || gp.Now() != lp.Now() || gp.Now() != sim.Time(gp.Hits)*hit || gp.Hits != int64(rowPtr[done]-rowPtr[lo]) {
			t.Fatalf("%s: SpMV left hits %d, now %d; Loads of the completed rows leave %d, %d", what, gp.Hits, gp.Now(), lp.Hits, lp.Now())
		}
		for k := done - lo; k < len(q); k++ {
			if q[k] != mark {
				t.Fatalf("%s: q[%d] written behind the stop at row %d", what, k, done)
			}
		}
	}
	base, n := int64(5*4096), 3*512 // x is pages 5, 6 and 7
	spmv("two rows", tb, base, n, [][]int32{{3, 511, 0}, {3, 200}}, 0, 2)
	spmv("odd row count", tb, base, n, [][]int32{{3, 1}, {2}, {4, 5, 6}}, 0, 3)
	spmv("unequal and empty rows", tb, base, n, [][]int32{{1, 2, 3, 4}, {}, {}, {5}, {6, 7}, {}, {8}}, 0, 7)
	spmv("from row lo", tb, base, n, [][]int32{{9}, {1, 2}, {3}, {4}}, 1, 4)
	spmv("no rows", tb, base, n, [][]int32{{1}, {2}}, 2, 2)
	spmv("two pages", tb, base, n, [][]int32{{1, 1024}, {2, 1024, 3}}, 0, 2)
	spmv("a new page in mid-row", tb, base, n, [][]int32{{1}, {2, 3, 1024, 4}}, 0, 2)
	spmv("all of x resident", tb, base, 512, [][]int32{{1, 511}, {2}, {}, {3, 4, 5}}, 0, 4)
	spmv("every page touched resident", tb, base, n,
		[][]int32{{1024, 1}, {2}, {1024}, {3, 1024, 4}, {}, {5, 6, 7, 8, 1024}, {9}, {1024, 1024}, {10}}, 0, 9)
	spmv("x of tlbSize pages", tb, base, tlbSize*512, [][]int32{{1, 1024}, {2}}, 0, 2)
	spmv("x wider than tlbSize pages", tb, base, tlbSize*512+1, [][]int32{{1, 1024}, {2}}, 0, 0)
	spmv("x wider than tlbSize pages from inside its first", tb, base+8, tlbSize*512, [][]int32{{1}, {2}}, 0, 0)
	spmv("miss in the first row", tb, base, n, [][]int32{{1, 512, 3}, {2}}, 0, 0)
	spmv("miss in the second row", tb, base, n, [][]int32{{1, 2}, {3, 512}}, 0, 1)
	spmv("miss in a later row's tail", tb, base, n, [][]int32{{1}, {2, 3, 4, 512}}, 0, 1)
	spmv("miss in the first row's tail", tb, base, n, [][]int32{{2, 3, 4, 512}, {1}}, 0, 0)
	spmv("miss in the third row", tb, base, n, [][]int32{{1}, {2}, {3, 512}, {4}}, 0, 2)
	spmv("index below x", tb, base, n, [][]int32{{1}, {2}, {-1}}, 0, 2)
	spmv("index beyond x", tb, base, 2*512, [][]int32{{1}, {2}, {1024}}, 0, 2)
	spmv("nil TLB", nil, base, n, [][]int32{{1}, {2}}, 0, 0)
	spmv("unaligned base", tb, base+4, n, [][]int32{{1}, {2}}, 0, 0)
	// The table of opened pages is on the stack: a call allocates nothing.
	rowPtr, colIdx, val, q, p := []int32{0, 2, 3}, []int32{1, 1024, 2}, []float64{1, 2, 3}, make([]float64, 2), &sim.Proc{}
	if a := testing.AllocsPerRun(100, func() { tb.SpMV(p, base, n, rowPtr, colIdx, val, 0, 2, q) }); a != 0 || p.Hits != 3*101 {
		t.Fatalf("SpMV allocated %v times a call, left %d hits", a, p.Hits)
	}
	ln7.BumpGen()
	spmv("stale entry in the third row", tb, base, n, [][]int32{{1}, {2}, {3, 1024}, {4}}, 0, 2)
	spmv("stale entry reached only in a later row", tb, base, n, [][]int32{{1, 2}, {3}, {4, 5}, {1024}, {6}}, 0, 3)
	ln.BumpGen()
	spmv("stale generation", tb, base, n, [][]int32{{1}, {2}}, 0, 0)
}

// TestLittleEndianHostOnly is the byte-order contract in one place: a word the
// locked path decodes with encoding/binary must be the word the TLB loads and
// stores natively, byte for byte. On a big-endian host the package's init
// panics with the same reason before any test runs; this test names it should
// that guard ever be loosened.
func TestLittleEndianHostOnly(t *testing.T) {
	const msg = "argo runs on little-endian hosts only: the TLB's native word access and the locked path's binary.LittleEndian decoding disagree"
	c := New(0, 4096, 4, 2, 16)
	tb, p := c.NewTLB(1), &sim.Proc{}
	ln := c.LockLine(c.LineOf(3))
	defer ln.Unlock()
	s := c.SlotOf(ln, 3)
	s.Page, s.St = 3, Dirty
	c.PrepareRefill(s)
	copy(s.Data[8:], []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x88})
	ln.FillTLB(tb, s)
	addr := int64(3*4096 + 8)
	if v, ok := tb.Load(p, addr); !ok || v != binary.LittleEndian.Uint64(s.Data[8:]) {
		t.Fatalf("%s (Load = %#x, %v; bytes decode to %#x)", msg, v, ok, binary.LittleEndian.Uint64(s.Data[8:]))
	}
	if !tb.Store(p, addr+8, 0x8807060504030201) || !bytes.Equal(s.Data[16:24], s.Data[8:16]) {
		t.Fatalf("%s (Store wrote % x)", msg, s.Data[16:24])
	}
}

// benchGatherRig is CG's row shape at the ledger size: 128 resident pages (a
// 65536-element vector) behind one TLB, and a CSR matrix of 256 rows of 32
// random column indices.
func benchGatherRig(b *testing.B) (tb *TLB, rowPtr, colIdx []int32, val []float64) {
	const pages, rows, perRow = benchWords / 512, 256, 32
	c := New(0, 4096, pages/2, 2, 16)
	tb = c.NewTLB(1)
	for pg := 0; pg < pages; pg++ {
		ln := c.LockLine(c.LineOf(pg))
		s := c.SlotOf(ln, pg)
		s.Page, s.St = pg, Clean
		c.PrepareRefill(s)
		ln.FillTLB(tb, s)
		ln.Unlock()
	}
	rng := rand.New(rand.NewSource(1))
	rowPtr = make([]int32, rows+1)
	colIdx, val = make([]int32, rows*perRow), make([]float64, rows*perRow)
	for i := range colIdx {
		colIdx[i], val[i] = int32(rng.Intn(pages*512)), rng.Float64()
	}
	for i := range rowPtr {
		rowPtr[i] = int32(i * perRow)
	}
	return tb, rowPtr, colIdx, val
}

var benchSink float64

// benchWords is the length of benchGatherRig's vector in words.
const benchWords = 128 * 512

// BenchmarkTLBLoad is the scalar form of BenchmarkTLBSpMV: the same pair of
// rows per iteration, summed one Load per nonzero. The three TLB benchmarks
// report ns per word.
func BenchmarkTLBLoad(b *testing.B) {
	tb, rowPtr, colIdx, val := benchGatherRig(b)
	p, q := &sim.Proc{}, make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := 2 * (i & 127)
		for r := range q {
			var acc float64
			for k := rowPtr[lo+r]; k < rowPtr[lo+r+1]; k++ {
				v, _ := tb.Load(p, int64(colIdx[k])*8)
				acc += val[k] * math.Float64frombits(v)
			}
			q[r] = acc
		}
	}
	benchSink = q[0]
	if p.Hits != int64(b.N)*64 {
		b.Fatalf("%d hits in %d pairs of rows of 32", p.Hits, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/word")
}

// BenchmarkTLBSpMV is the partially resident shape: one call per pair of
// rows, so each call opens the ≤64 pages its two rows read.
func BenchmarkTLBSpMV(b *testing.B) {
	tb, rowPtr, colIdx, val := benchGatherRig(b)
	p, q := &sim.Proc{}, make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := 2 * (i & 127)
		tb.SpMV(p, 0, benchWords, rowPtr, colIdx, val, lo, lo+2, q)
	}
	benchSink = q[0]
	if p.Hits != int64(b.N)*64 {
		b.Fatalf("%d hits in %d pairs of rows of 32", p.Hits, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/word")
}

// BenchmarkTLBSpMVBlock is CG's call shape (cg.spmvGather makes one call per
// thread block): one call over all 256 rows, every page of x resident.
func BenchmarkTLBSpMVBlock(b *testing.B) {
	tb, rowPtr, colIdx, val := benchGatherRig(b)
	p, q := &sim.Proc{}, make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.SpMV(p, 0, benchWords, rowPtr, colIdx, val, 0, 256, q)
	}
	benchSink = q[0]
	if p.Hits != int64(b.N)*256*32 {
		b.Fatalf("%d hits in %d calls of 256 rows of 32", p.Hits, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256*32), "ns/word")
}
