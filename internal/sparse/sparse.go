// Package sparse provides the one on-demand array behind the cluster's
// skeleton: the page cache's lines, the Pyxis full-maps and the home page
// table. An Array has a fixed length, but its storage appears chunk by chunk
// the first time an element of the chunk is asked for, so a structure sized
// for the configured capacity costs only what a run touches.
//
// First touch is one compare-and-swap: a goroutine that finds a chunk missing
// builds one (zeroed, then passed to the init hook) and publishes it; of
// several that race, one wins and the others drop theirs and use the winner's.
// A published chunk is never moved or freed while the Array lives, so element
// addresses are stable and may be cached (the TLB keeps *LineSync pointers).
// Elements are not synchronised by the Array: users guard them as they would
// guard the elements of a slice.
package sparse

import (
	"fmt"
	"sync/atomic"
)

// ChunkLen is the number of elements that appear together. DESIGN § 16 has
// the measurement behind the number.
const ChunkLen = 64

// Array is a fixed-length array of T stored in chunks of ChunkLen elements.
// Build one with Make. Copies of an Array share its chunks.
type Array[T any] struct {
	n      int
	init   func(base int, chunk []T)
	chunks []atomic.Pointer[[ChunkLen]T]
}

// Make returns an Array of n elements. init, when non-nil, prepares each new
// chunk before it can be seen: chunk[j] is element base+j. It may run for a
// chunk that then loses the publication race and is dropped.
func Make[T any](n int, init func(base int, chunk []T)) Array[T] {
	if n < 0 {
		panic(fmt.Sprintf("sparse: negative length %d", n))
	}
	return Array[T]{n: n, init: init, chunks: make([]atomic.Pointer[[ChunkLen]T], (n+ChunkLen-1)/ChunkLen)}
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
// element base+j.
func (a *Array[T]) Chunks(fn func(base int, chunk []T)) {
	for ci := range a.chunks {
		if c := a.chunks[ci].Load(); c != nil {
			fn(ci*ChunkLen, a.trim(ci, c))
		}
	}
}

// trim cuts the last chunk down to the elements the Array has.
func (a *Array[T]) trim(ci int, c *[ChunkLen]T) []T {
	return c[:min(ChunkLen, a.n-ci*ChunkLen)]
}

func (a *Array[T]) publish(ci int) *[ChunkLen]T {
	c := new([ChunkLen]T)
	if a.init != nil {
		a.init(ci*ChunkLen, a.trim(ci, c))
	}
	if a.chunks[ci].CompareAndSwap(nil, c) {
		return c
	}
	return a.chunks[ci].Load()
}

// indexError defers formatting to whoever prints the panic, which keeps Peek
// within the inlining budget.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("sparse: index %d out of range [0, %d)", e.i, e.n)
}
