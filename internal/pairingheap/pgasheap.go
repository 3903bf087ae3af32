package pairingheap

import "argo/internal/pgas"

// PGASHeap is the pairing heap stored in a UPC-style shared array: the same
// algorithm as DSMHeap, but every node/meta access is a fine-grained PGAS
// operation with no caching. For every rank that does not own the heap's
// block, each pointer chase in a critical section is a remote access — the
// §2.1 cost that makes UPC critical sections so expensive.
type PGASHeap struct {
	arena[pgasWords]
	meta  *pgas.SharedI64 // [root, size, freeHead, next, cap]
	nodes *pgas.SharedI64 // cap * 3: key, child, sibling
}

// pgasWords is a PGASHeap's words as rank r reaches them.
type pgasWords struct {
	h *PGASHeap
	r *pgas.Rank
}

func (w pgasWords) meta(i int) int64       { return w.h.meta.Get(w.r, i) }
func (w pgasWords) setMeta(i int, v int64) { w.h.meta.Put(w.r, i, v) }
func (w pgasWords) node(i int) int64       { return w.h.nodes.Get(w.r, i) }
func (w pgasWords) setNode(i int, v int64) { w.h.nodes.Put(w.r, i, v) }

// NewPGASHeap allocates a heap with room for capacity elements in w's
// shared space. One rank must initialize it (Init) before use.
func NewPGASHeap(w *pgas.World, capacity int) *PGASHeap {
	return &PGASHeap{
		arena: arena[pgasWords]{cap: capacity},
		meta:  w.NewSharedI64(metaLen),
		nodes: w.NewSharedI64(capacity * 3),
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

// Len returns the number of elements.
func (h *PGASHeap) Len(r *pgas.Rank) int { return int(h.meta.Get(r, mSize)) }

// Insert adds key under the caller's lock.
func (h *PGASHeap) Insert(r *pgas.Rank, key int64) { h.insert(pgasWords{h, r}, key) }

// ExtractMin removes and returns the minimum key under the caller's lock.
func (h *PGASHeap) ExtractMin(r *pgas.Rank) (int64, bool) { return h.extractMin(pgasWords{h, r}) }
