package core

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// bulkRoundTrip drives one element type through every bulk path — InitSlice,
// ReadRange, WriteRange, DumpSlice — at offsets and lengths that cross page
// edges and the conversion chunk, checks each against the scalar accessors
// (the reference: one word at a time through ReadWord/WriteWord) and checks
// the memory representation itself: eight little-endian bytes per element.
func bulkRoundTrip[T Element](t *testing.T, g bulkGeom, gen func(i int) T, bits func(T) uint64) {
	cfg := testConfig(2)
	cfg.PageSize, cfg.MemoryBytes = g.pageSize, int64(g.n)*8+4096
	c := MustNewCluster(cfg)
	n, lo, span := g.n, g.lo, g.span
	s := AllocSlice[T](c, n)
	vals := make([]T, n)
	for i := range vals {
		vals[i] = gen(i)
	}
	InitSlice(c, s, vals)
	for _, i := range []int{0, 1, n / 2, n - 1} {
		var raw [8]byte
		c.dumpBytes(s.At(i), raw[:])
		if got := binary.LittleEndian.Uint64(raw[:]); got != bits(vals[i]) {
			t.Fatalf("element %d stored as %#x, want %#x little-endian", i, got, bits(vals[i]))
		}
	}
	c.Run(1, func(th *Thread) {
		if th.Rank != 0 {
			return
		}
		dst := make([]T, span)
		ReadRange(th, s, lo, lo+span, dst)
		for i, v := range dst {
			if bits(v) != bits(vals[lo+i]) || bits(v) != bits(Get(th, s, lo+i)) {
				panic("ReadRange disagrees with InitSlice or the scalar read")
			}
		}
		for i := range dst {
			dst[i] = gen(lo + i + 7)
		}
		WriteRange(th, s, lo, dst)
		for i, v := range dst {
			if bits(Get(th, s, lo+i)) != bits(v) {
				panic("scalar read disagrees with WriteRange")
			}
		}
		Set(th, s, lo-1, gen(-1))
		th.ReleaseFence()
	})
	got := DumpSlice(c, s)
	for i := range got {
		want := vals[i]
		switch {
		case i == lo-1:
			want = gen(-1)
		case i >= lo && i < lo+span:
			want = gen(i + 7)
		}
		if bits(got[i]) != bits(want) {
			t.Fatalf("DumpSlice[%d] = %v, want %v", i, got[i], want)
		}
	}
}

type bulkGeom struct{ pageSize, n, lo, span int }

func TestBulkIOEveryTypeAndGeometry(t *testing.T) {
	for _, g := range []bulkGeom{
		// Per-page-segment path: three conversion chunks (the last one
		// short), a range that starts mid-page and spans three pages.
		{4096, bulkChunk/8*2 + 37, 509, 1500},
		// A 4-byte page cannot hold a word: ReadRange and WriteRange fall
		// back to the staged copy.
		{4, 300, 13, 200},
	} {
		bulkRoundTrip(t, g, func(i int) float64 {
			if i%97 == 0 {
				return math.Float64frombits(0x7ff8dead0000beef) // a NaN payload must survive bit for bit
			}
			return float64(i)*-1.5 + 0.125
		}, math.Float64bits)
		bulkRoundTrip(t, g, func(i int) int64 { return int64(i)*-0x0102030405 + math.MinInt64/3 },
			func(v int64) uint64 { return uint64(v) })
		bulkRoundTrip(t, g, func(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + math.MaxUint64/5 },
			func(v uint64) uint64 { return v })
	}
}

// A page nobody has written reads as zeros on every path that can reach it —
// a thread's read miss (scalar and bulk) and the home-memory dump.
func TestHomeNeverWrittenReadsZerosEverywhere(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	xs := c.AllocF64(3 * 512) // three pages, homes alternate
	c.InitF64(Slice[float64]{Base: xs.At(512), Len: 1}, []float64{7})
	c.Run(1, func(th *Thread) {
		if th.Rank != 0 {
			return
		}
		if th.GetF64(xs, 5) != 0 || th.GetF64(xs, 2*512+9) != 0 || th.GetF64(xs, 512) != 7 {
			panic("read miss of a never-written page did not return zeros")
		}
		dst := []float64{1, 1, 1, 1}
		th.ReadF64s(xs, 510, 514, dst)
		if dst[0] != 0 || dst[1] != 0 || dst[2] != 7 || dst[3] != 0 {
			panic("bulk read across a never-written page edge wrong")
		}
	})
	for i, v := range c.DumpF64(xs) {
		if v != 0 && i != 512 {
			t.Fatalf("dump[%d] = %v, want 0", i, v)
		}
	}
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// Building a default four-node cluster reserves 64 MB of global memory and
// must not allocate it: home pages materialise when first written.
func TestNewClusterAllocBudget(t *testing.T) {
	before := allocated()
	c := MustNewCluster(DefaultConfig(4))
	if got := allocated() - before; got >= 20<<20 {
		t.Fatalf("NewCluster(DefaultConfig(4)) allocated %.1f MB, want < 20", float64(got)/(1<<20))
	}
	if c.Space.Capacity() != 64<<20 {
		t.Fatalf("capacity %d, want 64 MB", c.Space.Capacity())
	}
}
