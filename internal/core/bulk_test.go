package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// bulkRoundTrip drives one element type through every bulk path — InitSlice,
// ReadRange, WriteRange, DumpSlice — at offsets and lengths that cross page
// edges, checks each against the scalar accessors
// (the reference: one word at a time through ReadWord/WriteWord) and checks
// the memory representation itself: eight little-endian bytes per element.
func bulkRoundTrip[T Element](t *testing.T, g bulkGeom, gen func(i int) T, bits func(T) uint64) {
	cfg := testConfig(2)
	cfg.PageSize, cfg.MemoryBytes = g.pageSize, int64(g.n)*8+4096
	c := MustNewCluster(cfg)
	n, lo, span := g.n, g.lo, g.span
	s := allocSlice[T](c, n)
	vals := make([]T, n)
	for i := range vals {
		vals[i] = gen(i)
	}
	initSlice(c, s, vals)
	for _, i := range []int{0, 1, n / 2, n - 1} {
		var raw [8]byte
		dumpBytes(c, s.At(i), raw[:])
		if got := binary.LittleEndian.Uint64(raw[:]); got != bits(vals[i]) {
			t.Fatalf("element %d stored as %#x, want %#x little-endian", i, got, bits(vals[i]))
		}
	}
	c.Run(1, func(th *Thread) {
		if th.Rank != 0 {
			return
		}
		dst := make([]T, span)
		readRange(th, s, lo, lo+span, dst)
		for i, v := range dst {
			if bits(v) != bits(vals[lo+i]) || bits(v) != th.ReadU64(s.At(lo+i)) {
				panic("ReadRange disagrees with InitSlice or the scalar read")
			}
		}
		for i := range dst {
			dst[i] = gen(lo + i + 7)
		}
		writeRange(th, s, lo, dst)
		for i, v := range dst {
			if th.ReadU64(s.At(lo+i)) != bits(v) {
				panic("scalar read disagrees with WriteRange")
			}
		}
		th.WriteU64(s.At(lo-1), bits(gen(-1)))
		th.ReleaseFence()
	})
	got := dumpSlice(c, s)
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
		// 33 pages (the last one partial); the range starts mid-page,
		// straddles three page edges and ends mid-page.
		{4096, 16*1024 + 37, 509, 1500},
		// PageSize&7 != 0: a 4-byte page cannot hold a word, so every
		// element straddles a page edge and no thread gets a TLB.
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

// wordBytesCase holds the byte view of one element type to encoding/binary:
// copying the view into a page buffer must lay down eight little-endian bytes
// per element and nothing else, at any byte offset, and copying back must
// return the same bits; nil and empty slices give an empty view that element
// 0 is never read for.
func wordBytesCase[T Element](t *testing.T, special []T, gen func(i int) T, bits func(T) uint64) {
	t.Helper()
	if len(wordBytes[T](nil)) != 0 || len(wordBytes(make([]T, 0, 4))) != 0 || len(wordBytes([]T{})) != 0 {
		t.Fatal("nil or empty slice has a non-empty byte view")
	}
	if n := copy(wordBytes[T](nil), []byte{1, 2, 3, 4, 5, 6, 7, 8}); n != 0 {
		t.Fatalf("copy into the view of a nil slice moved %d bytes", n)
	}
	for _, n := range []int{0, 1, 31, 32, 8193} {
		src := make([]T, n)
		for i := range src {
			if i < len(special) {
				src[i] = special[i]
			} else {
				src[i] = gen(i)
			}
		}
		for off := 0; off < 8; off++ {
			page := bytes.Repeat([]byte{0xa5}, off+n*8+8)
			copy(page[off:off+n*8], wordBytes(src))
			for i := 0; i < off; i++ {
				if page[i] != 0xa5 {
					t.Fatalf("n=%d off=%d: byte %d before the segment overwritten", n, off, i)
				}
			}
			for i, b := range page[off+n*8:] {
				if b != 0xa5 {
					t.Fatalf("n=%d off=%d: byte %d past the segment overwritten", n, off, i)
				}
			}
			dst := make([]T, n)
			copy(wordBytes(dst), page[off:off+n*8])
			for i, v := range src {
				if got := binary.LittleEndian.Uint64(page[off+i*8:]); got != bits(v) {
					t.Fatalf("n=%d off=%d: element %d laid down as %#x, want %#x little-endian", n, off, i, got, bits(v))
				}
				if bits(dst[i]) != bits(v) {
					t.Fatalf("n=%d off=%d: element %d read back as %#x, want %#x", n, off, i, bits(dst[i]), bits(v))
				}
			}
		}
	}
}

func TestWordBytesIsLittleEndianMemory(t *testing.T) {
	wordBytesCase(t,
		[]float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8dead0000beef), math.Float64frombits(0xfff0000000000001),
			math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64},
		func(i int) float64 { return float64(i)*-1.5 + 0.125 }, math.Float64bits)
	wordBytesCase(t, []int64{math.MinInt64, math.MaxInt64, -1, 0, 0x0102030405060708},
		func(i int) int64 { return int64(i)*-0x0102030405 + math.MinInt64/3 }, func(v int64) uint64 { return uint64(v) })
	wordBytesCase(t, []uint64{math.MaxUint64, 0, 1 << 63, 0x0102030405060708},
		func(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + math.MaxUint64/5 }, func(v uint64) uint64 { return v })
}

// Bulk transfers of no elements — nil or empty, anywhere in the array — touch
// neither memory nor the caller's slice, and charge nothing.
func TestBulkIOEmptyRanges(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	xs := c.AllocF64(1024)
	c.InitF64(xs, nil)
	c.InitF64(Slice[float64]{Base: xs.At(1024)}, []float64{}) // one past the end: still nothing to write
	makespan := c.Run(1, func(th *Thread) {
		th.ReadF64s(xs, 512, 512, nil)
		th.ReadF64s(xs, 1024, 1024, []float64{})
		th.WriteF64s(xs, 512, nil)
		th.WriteF64s(xs, 1024, []float64{})
		keep := []float64{3}
		th.ReadF64s(xs, 7, 7, keep)
		if keep[0] != 3 {
			panic("an empty bulk read wrote to dst")
		}
	})
	if makespan != 0 || c.Stats().ReadMisses != 0 || c.Stats().WriteMisses != 0 {
		t.Fatalf("empty transfers cost %d ns, %d read and %d write misses", makespan, c.Stats().ReadMisses, c.Stats().WriteMisses)
	}
	if got := dumpSlice(c, Slice[float64]{Base: xs.Base}); len(got) != 0 {
		t.Fatalf("DumpSlice of an empty view returned %d elements", len(got))
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
