package core

import (
	"fmt"
	"math"
	"unsafe"

	"argo/internal/mem"
)

// ---------------------------------------------------------------------------
// Typed array views
// ---------------------------------------------------------------------------

// Element is the set of 8-byte scalar types global arrays can be viewed as.
type Element interface {
	uint64 | int64 | float64
}

// Slice is a view of n values of type T in global memory. F64Slice,
// I64Slice and U64Slice are aliases of its instantiations, so the
// pre-generics named types and this one are interchangeable.
type Slice[T Element] struct {
	Base mem.Addr
	Len  int
}

// At returns the address of element i.
func (s Slice[T]) At(i int) mem.Addr { return s.Base + mem.Addr(i)*8 }

// F64Slice is a view of n float64 values in global memory.
type F64Slice = Slice[float64]

// I64Slice is a view of n int64 values in global memory.
type I64Slice = Slice[int64]

// U64Slice is a view of n uint64 values in global memory.
type U64Slice = Slice[uint64]

// wordBytes views v's elements as the bytes they occupy in this process.
// Global memory holds little-endian 8-byte words and the host is little-endian
// (package cache refuses to start otherwise, and its TLB loads and stores the
// same words natively), so the view is already v's memory representation: a
// bulk transfer is a copy to or from it, one memmove per page segment.
func wordBytes[T Element](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}

// allocSlice reserves a global array of n elements on its own pages.
func allocSlice[T Element](c *Cluster, n int) Slice[T] {
	return Slice[T]{Base: c.AllocPages(int64(n) * 8), Len: n}
}

// readRange bulk-reads elements [lo,hi) into dst (len(dst) >= hi-lo), page
// segment by page segment straight out of the cache.
func readRange[T Element](t *Thread, s Slice[T], lo, hi int, dst []T) {
	t.Coh.ReadAt(t.P, s.At(lo), wordBytes(dst[:hi-lo]))
}

// writeRange bulk-writes src to elements [lo, lo+len(src)), page segment by
// page segment straight into the cache.
func writeRange[T Element](t *Thread, s Slice[T], lo int, src []T) {
	t.Coh.WriteAt(t.P, s.At(lo), wordBytes(src))
}

// initSlice writes vals directly into home memory with no protocol activity
// and no virtual cost: the paper excludes initialization from measurement
// and resets classification after it.
func initSlice[T Element](c *Cluster, s Slice[T], vals []T) {
	c.InitBytes(s.Base, wordBytes(vals))
}

// ViewHome hands fn the home-memory truth of s in place, segment by segment in
// element order, each segment the part of s on one page or a 4 KiB run of
// zeros. Call it after all threads have quiesced and before Close, as a
// verification read: zero cost, no protocol activity, no copy. fn gets a
// read-only view taken under its page's read lock, and must not write to it,
// keep it after it returns, or write home memory itself; a page nobody has
// written is seen as zeros and gets no home frame. A checksum or digest folded
// over the segments is the one folded over DumpF64/DumpI64's copy, without
// making the copy. The pages must hold whole words (PageSize >= 8), and s
// must start on a word.
func ViewHome[T Element](c *Cluster, s Slice[T], fn func(seg []T)) {
	if s.Base%8 != 0 || c.Space.PageSize < 8 {
		panic(fmt.Sprintf("core: no word view of a slice at %#x on %d-byte pages", s.Base, c.Space.PageSize))
	}
	c.viewBytes(s.Base, s.Len*8, func(b []byte) {
		fn(unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8))
	})
}

// dumpSlice copies the home-memory truth of s out: the walk ViewHome takes,
// byte by byte, so that it also serves pages too small to hold a word.
func dumpSlice[T Element](c *Cluster, s Slice[T]) []T {
	out := make([]T, s.Len)
	dst := wordBytes(out)
	c.viewBytes(s.Base, len(dst), func(b []byte) { dst = dst[copy(dst, b):] })
	return out
}

// ---------------------------------------------------------------------------
// Pre-generics accessors (methods cannot be generic). The scalar ones convert
// directly.
// ---------------------------------------------------------------------------

// AllocF64 reserves a global float64 array of n elements on its own pages.
func (c *Cluster) AllocF64(n int) F64Slice { return allocSlice[float64](c, n) }

// AllocI64 reserves a global int64 array of n elements on its own pages.
func (c *Cluster) AllocI64(n int) I64Slice { return allocSlice[int64](c, n) }

// GetF64 reads element i.
func (t *Thread) GetF64(s F64Slice, i int) float64 { return math.Float64frombits(t.ReadU64(s.At(i))) }

// SetF64 writes element i.
func (t *Thread) SetF64(s F64Slice, i int, v float64) { t.WriteU64(s.At(i), math.Float64bits(v)) }

// SpMVF64 computes rows [lo,hi) of the sparse product A·x into q (row i in
// q[i-lo], len(q) >= hi-lo), A being the CSR matrix rowPtr, colIdx, val and x
// read element-wise through the page cache: q[i-lo] is the sum over k in
// [rowPtr[i], rowPtr[i+1]) of val[k]*GetF64(x, colIdx[k]), summed left to
// right from zero. It is that loop — the same elements in the same order, the
// same hits and misses, the same counters, the same clock at every miss and
// the same bits in q — served a run of rows at a time: the TLB checks each
// page of x once per call, multiplies and adds the rows, and charges their
// hits together (cache.TLB.SpMV). The row a call stopped at goes element by
// element through GetF64, whose miss path refills the TLB, and the next call
// resumes behind it.
func (t *Thread) SpMVF64(x F64Slice, rowPtr, colIdx []int32, val []float64, lo, hi int, q []float64) {
	for i := lo; i < hi; i++ {
		i = t.tlb.SpMV(t.P, x.Base, x.Len, rowPtr, colIdx, val, i, hi, q[i-lo:])
		if i < hi { // the call stopped at row i: row i in element order
			var acc float64
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				acc += val[k] * t.GetF64(x, int(colIdx[k]))
			}
			q[i-lo] = acc
		}
	}
}

// ReadF64s bulk-reads elements [lo,hi) into dst (len(dst) >= hi-lo).
func (t *Thread) ReadF64s(s F64Slice, lo, hi int, dst []float64) { readRange(t, s, lo, hi, dst) }

// WriteF64s bulk-writes src to elements [lo, lo+len(src)).
func (t *Thread) WriteF64s(s F64Slice, lo int, src []float64) { writeRange(t, s, lo, src) }

// GetI64 reads element i.
func (t *Thread) GetI64(s I64Slice, i int) int64 { return int64(t.ReadU64(s.At(i))) }

// SetI64 writes element i.
func (t *Thread) SetI64(s I64Slice, i int, v int64) { t.WriteU64(s.At(i), uint64(v)) }

// ReadI64s bulk-reads elements [lo,hi) into dst.
func (t *Thread) ReadI64s(s I64Slice, lo, hi int, dst []int64) { readRange(t, s, lo, hi, dst) }

// WriteI64s bulk-writes src to elements [lo, lo+len(src)).
func (t *Thread) WriteI64s(s I64Slice, lo int, src []int64) { writeRange(t, s, lo, src) }

// InitF64 writes vals directly into home memory (see InitSlice).
func (c *Cluster) InitF64(s F64Slice, vals []float64) { initSlice(c, s, vals) }

// InitI64 writes vals directly into home memory (see InitSlice).
func (c *Cluster) InitI64(s I64Slice, vals []int64) { initSlice(c, s, vals) }

// DumpF64 copies the home-memory truth of s out (see ViewHome).
func (c *Cluster) DumpF64(s F64Slice) []float64 { return dumpSlice(c, s) }

// DumpI64 copies the home-memory truth of s out (see ViewHome).
func (c *Cluster) DumpI64(s I64Slice) []int64 { return dumpSlice(c, s) }
