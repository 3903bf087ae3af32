// Package sparse provides the one on-demand array behind the cluster's
// skeleton: the page cache's lines, the Pyxis full-maps and the home page
// table. An Array has a fixed length, but its storage appears chunk by chunk
// the first time an element of the chunk is asked for, so a structure sized
// for the configured capacity costs only what a run touches.
//
// First touch is one compare-and-swap: a goroutine that finds a chunk missing
// takes one (from the Array's Pool, else a zeroed new one), passes it to the
// init hook and publishes it; of several that race, one wins and the others
// hand theirs back and use the winner's. A published chunk is never moved or
// freed until Free, so element addresses are stable and may be cached until
// then (the TLB keeps *LineSync pointers). Elements are not synchronised by
// the Array: users guard them as they would guard the elements of a slice.
//
// Chunks outlive the Array. Free hands them to the Array's Pool, reset to the
// state a new chunk has, and the next Array that takes the same Pool — the
// next cluster's, in the same process — publishes them again instead of
// allocating its skeleton anew.
package sparse

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ChunkLen is the number of elements that appear together. DESIGN § 16 has
// the measurement behind the number.
const ChunkLen = 64

// Array is a fixed-length array of T stored in chunks of ChunkLen elements.
// Build one with Make. Copies of an Array share its chunks.
type Array[T any] struct {
	n      int
	pool   *Pool[T]
	init   func(base int, chunk []T)
	chunks []atomic.Pointer[[ChunkLen]T]
}

// Pool recycles chunks between the Arrays that take it. Declare one as a
// package-level variable of the package that owns the element type: only that
// package knows what a fresh element holds.
//
// It is a sync.Pool, so the garbage collector may take chunks back: a chunk
// nobody has asked for survives one collection (in the pool's victim cache)
// and is freed by the second, as mem's frames are.
type Pool[T any] struct {
	p     sync.Pool
	reset func(chunk *[ChunkLen]T)
}

// NewPool returns a Pool whose chunks reset brings back to the state of a new
// chunk — every one of the ChunkLen elements, since a chunk that was the short
// last one of an Array may come back as a whole one of a longer Array. A nil
// reset zeroes the elements.
func NewPool[T any](reset func(chunk *[ChunkLen]T)) *Pool[T] {
	return &Pool[T]{reset: reset}
}

// get returns a recycled chunk, or a zeroed new one.
func (p *Pool[T]) get() *[ChunkLen]T {
	if c, ok := p.p.Get().(*[ChunkLen]T); ok {
		return c
	}
	return new([ChunkLen]T)
}

// put resets c and keeps it for a later get.
func (p *Pool[T]) put(c *[ChunkLen]T) {
	if p.reset != nil {
		p.reset(c)
	} else {
		clear(c[:])
	}
	p.p.Put(c)
}

// Make returns an Array of n elements whose chunks come from pool and go back
// to it on Free. init, when non-nil, prepares each chunk before it can be
// seen: chunk[j] is element base+j. It is given the whole chunk, the elements
// past the Array's end included, and it may be given a recycled chunk as well
// as a new one. It may run for a chunk that then loses the publication race
// and goes back to the pool.
func Make[T any](n int, pool *Pool[T], init func(base int, chunk []T)) Array[T] {
	if n < 0 {
		panic(fmt.Sprintf("sparse: negative length %d", n))
	}
	return Array[T]{n: n, pool: pool, init: init, chunks: make([]atomic.Pointer[[ChunkLen]T], (n+ChunkLen-1)/ChunkLen)}
}

// At returns the address of element i, publishing its chunk on first touch.
// The publishing call keeps At from inlining; Peek does inline, so a hot path
// tries Peek and falls back to At on nil.
func (a *Array[T]) At(i int) *T {
	if e := a.Peek(i); e != nil {
		return e
	}
	return &a.publish(i / ChunkLen)[i%ChunkLen]
}

// Peek returns the address of element i, or nil if its chunk has not been
// touched. It never allocates.
func (a *Array[T]) Peek(i int) *T {
	u := uint(i) // unsigned: the divisions below are a shift and a mask
	if u >= uint(a.n) {
		panic(indexError{i, a.n})
	}
	c := a.chunks[u/ChunkLen].Load()
	if c == nil {
		return nil
	}
	return &c[u%ChunkLen]
}

// Chunks calls fn for every published chunk in index order; chunk[j] is
// element base+j, and the last chunk is cut down to the Array's end.
func (a *Array[T]) Chunks(fn func(base int, chunk []T)) {
	for ci := range a.chunks {
		if c := a.chunks[ci].Load(); c != nil {
			fn(ci*ChunkLen, c[:min(ChunkLen, a.n-ci*ChunkLen)])
		}
	}
}

func (a *Array[T]) publish(ci int) *[ChunkLen]T {
	c := a.pool.get()
	if a.init != nil {
		a.init(ci*ChunkLen, c[:])
	}
	if a.chunks[ci].CompareAndSwap(nil, c) {
		return c
	}
	a.pool.put(c)
	return a.chunks[ci].Load()
}

// Free hands every published chunk back to the Array's pool, reset, and
// leaves the Array, and every copy of it, as if nothing had been touched. The
// caller guarantees that nothing uses the Array meanwhile and that no element
// address it gave out is used again.
func (a *Array[T]) Free() {
	for ci := range a.chunks {
		if c := a.chunks[ci].Swap(nil); c != nil {
			a.pool.put(c)
		}
	}
}

// indexError defers formatting to whoever prints the panic, which keeps Peek
// within the inlining budget.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("sparse: index %d out of range [0, %d)", e.i, e.n)
}
