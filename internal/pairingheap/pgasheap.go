package pairingheap

import (
	"fmt"

	"argo/internal/pgas"
)

// PGASHeap is the pairing heap stored in a UPC-style shared array: the same
// algorithm as DSMHeap, but every node/meta access is a fine-grained PGAS
// operation with no caching. For every rank that does not own the heap's
// block, each pointer chase in a critical section is a remote access — the
// §2.1 cost that makes UPC critical sections so expensive.
type PGASHeap struct {
	meta  *pgas.SharedI64 // [root, size, freeHead, next, cap]
	nodes *pgas.SharedI64 // cap * 3: key, child, sibling
	cap   int
	pairs []int64 // mergePairs' scratch: the heap is only touched under its lock
}

// NewPGASHeap allocates a heap with room for capacity elements in w's
// shared space. Rank 0 must initialize it (InitPGASHeap) before use.
func NewPGASHeap(w *pgas.World, capacity int) *PGASHeap {
	return &PGASHeap{
		meta:  w.NewSharedI64(metaLen),
		nodes: w.NewSharedI64(capacity * 3),
		cap:   capacity,
	}
}

// Init sets up the empty heap (call from one rank before first use, with a
// barrier after).
func (h *PGASHeap) Init(r *pgas.Rank) {
	h.meta.Put(r, mRoot, nilRef)
	h.meta.Put(r, mSize, 0)
	h.meta.Put(r, mFree, nilRef)
	h.meta.Put(r, mNext, 0)
	h.meta.Put(r, mCap, int64(h.cap))
}

func (h *PGASHeap) key(r *pgas.Rank, n int64) int64     { return h.nodes.Get(r, int(n)*3) }
func (h *PGASHeap) child(r *pgas.Rank, n int64) int64   { return h.nodes.Get(r, int(n)*3+1) }
func (h *PGASHeap) sibling(r *pgas.Rank, n int64) int64 { return h.nodes.Get(r, int(n)*3+2) }
func (h *PGASHeap) setKey(r *pgas.Rank, n, v int64)     { h.nodes.Put(r, int(n)*3, v) }
func (h *PGASHeap) setChild(r *pgas.Rank, n, v int64)   { h.nodes.Put(r, int(n)*3+1, v) }
func (h *PGASHeap) setSibling(r *pgas.Rank, n, v int64) { h.nodes.Put(r, int(n)*3+2, v) }

func (h *PGASHeap) alloc(r *pgas.Rank) int64 {
	free := h.meta.Get(r, mFree)
	if free != nilRef {
		h.meta.Put(r, mFree, h.child(r, free))
		return free
	}
	next := h.meta.Get(r, mNext)
	if next >= int64(h.cap) {
		panic(fmt.Sprintf("pairingheap: PGAS heap full (cap %d)", h.cap))
	}
	h.meta.Put(r, mNext, next+1)
	return next
}

func (h *PGASHeap) release(r *pgas.Rank, n int64) {
	h.setChild(r, n, h.meta.Get(r, mFree))
	h.meta.Put(r, mFree, n)
}

// Len returns the number of elements.
func (h *PGASHeap) Len(r *pgas.Rank) int { return int(h.meta.Get(r, mSize)) }

// Insert adds key under the caller's lock.
func (h *PGASHeap) Insert(r *pgas.Rank, key int64) {
	n := h.alloc(r)
	h.setKey(r, n, key)
	h.setChild(r, n, nilRef)
	h.setSibling(r, n, nilRef)
	root := h.meta.Get(r, mRoot)
	h.meta.Put(r, mRoot, h.meld(r, root, n))
	h.meta.Put(r, mSize, h.meta.Get(r, mSize)+1)
}

// ExtractMin removes and returns the minimum key under the caller's lock.
func (h *PGASHeap) ExtractMin(r *pgas.Rank) (int64, bool) {
	root := h.meta.Get(r, mRoot)
	if root == nilRef {
		return 0, false
	}
	min := h.key(r, root)
	first := h.child(r, root)
	h.release(r, root)
	h.meta.Put(r, mRoot, h.mergePairs(r, first))
	h.meta.Put(r, mSize, h.meta.Get(r, mSize)-1)
	return min, true
}

func (h *PGASHeap) meld(r *pgas.Rank, a, b int64) int64 {
	if a == nilRef {
		return b
	}
	if b == nilRef {
		return a
	}
	if h.key(r, b) < h.key(r, a) {
		a, b = b, a
	}
	h.setSibling(r, b, h.child(r, a))
	h.setChild(r, a, b)
	return a
}

func (h *PGASHeap) mergePairs(r *pgas.Rank, first int64) int64 {
	if first == nilRef {
		return nilRef
	}
	pairs := h.pairs[:0]
	for first != nilRef {
		a := first
		b := h.sibling(r, a)
		if b == nilRef {
			h.setSibling(r, a, nilRef)
			pairs = append(pairs, a)
			break
		}
		first = h.sibling(r, b)
		h.setSibling(r, a, nilRef)
		h.setSibling(r, b, nilRef)
		pairs = append(pairs, h.meld(r, a, b))
	}
	root := pairs[len(pairs)-1]
	for i := len(pairs) - 2; i >= 0; i-- {
		root = h.meld(r, root, pairs[i])
	}
	h.pairs = pairs
	return root
}
