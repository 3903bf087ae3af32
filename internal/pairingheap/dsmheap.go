package pairingheap

import (
	"fmt"

	"argo/internal/core"
)

// DSMHeap is a pairing heap whose nodes live in Argo's global memory.
// Every field access goes through the calling thread's page cache, so the
// heap's pages behave exactly like the migratory critical-section data the
// paper describes: whichever node executes critical sections pulls the hot
// pages into its cache, and self-invalidation makes them leave again when
// the lock moves.
//
// The heap itself is sequential; callers serialize access with one of the
// DSM locks (or delegate operations through HQDL).
type DSMHeap struct {
	meta  core.I64Slice // [root, size, freeHead, next, cap]
	nodes core.I64Slice // cap * 3: key, child, sibling
	cap   int
	pairs []int64 // mergePairs' scratch: the heap is only touched under its lock
}

const (
	mRoot = iota
	mSize
	mFree
	mNext
	mCap
	metaLen
)

const nilRef = int64(-1)

// NewDSMHeap allocates a heap with room for capacity elements in c's global
// memory and initializes it (zero-cost init, outside measurement).
func NewDSMHeap(c *core.Cluster, capacity int) *DSMHeap {
	h := &DSMHeap{
		meta:  c.AllocI64(metaLen),
		nodes: c.AllocI64(capacity * 3),
		cap:   capacity,
	}
	c.InitI64(h.meta, []int64{nilRef, 0, nilRef, 0, int64(capacity)})
	return h
}

func (h *DSMHeap) key(t *core.Thread, n int64) int64     { return t.GetI64(h.nodes, int(n)*3) }
func (h *DSMHeap) child(t *core.Thread, n int64) int64   { return t.GetI64(h.nodes, int(n)*3+1) }
func (h *DSMHeap) sibling(t *core.Thread, n int64) int64 { return t.GetI64(h.nodes, int(n)*3+2) }
func (h *DSMHeap) setKey(t *core.Thread, n, v int64)     { t.SetI64(h.nodes, int(n)*3, v) }
func (h *DSMHeap) setChild(t *core.Thread, n, v int64)   { t.SetI64(h.nodes, int(n)*3+1, v) }
func (h *DSMHeap) setSibling(t *core.Thread, n, v int64) { t.SetI64(h.nodes, int(n)*3+2, v) }

// alloc pops a node from the free list or carves a fresh one.
func (h *DSMHeap) alloc(t *core.Thread) int64 {
	free := t.GetI64(h.meta, mFree)
	if free != nilRef {
		t.SetI64(h.meta, mFree, h.child(t, free))
		return free
	}
	next := t.GetI64(h.meta, mNext)
	if next >= int64(h.cap) {
		panic(fmt.Sprintf("pairingheap: DSM heap full (cap %d)", h.cap))
	}
	t.SetI64(h.meta, mNext, next+1)
	return next
}

func (h *DSMHeap) release(t *core.Thread, n int64) {
	h.setChild(t, n, t.GetI64(h.meta, mFree))
	t.SetI64(h.meta, mFree, n)
}

// Len returns the number of elements.
func (h *DSMHeap) Len(t *core.Thread) int { return int(t.GetI64(h.meta, mSize)) }

// Insert adds key to the heap. The caller must hold the protecting lock.
func (h *DSMHeap) Insert(t *core.Thread, key int64) {
	n := h.alloc(t)
	h.setKey(t, n, key)
	h.setChild(t, n, nilRef)
	h.setSibling(t, n, nilRef)
	root := t.GetI64(h.meta, mRoot)
	t.SetI64(h.meta, mRoot, h.meld(t, root, n))
	t.SetI64(h.meta, mSize, t.GetI64(h.meta, mSize)+1)
}

// ExtractMin removes and returns the minimum key. The caller must hold the
// protecting lock.
func (h *DSMHeap) ExtractMin(t *core.Thread) (int64, bool) {
	root := t.GetI64(h.meta, mRoot)
	if root == nilRef {
		return 0, false
	}
	min := h.key(t, root)
	first := h.child(t, root)
	h.release(t, root)
	t.SetI64(h.meta, mRoot, h.mergePairs(t, first))
	t.SetI64(h.meta, mSize, t.GetI64(h.meta, mSize)-1)
	return min, true
}

func (h *DSMHeap) meld(t *core.Thread, a, b int64) int64 {
	if a == nilRef {
		return b
	}
	if b == nilRef {
		return a
	}
	if h.key(t, b) < h.key(t, a) {
		a, b = b, a
	}
	h.setSibling(t, b, h.child(t, a))
	h.setChild(t, a, b)
	return a
}

func (h *DSMHeap) mergePairs(t *core.Thread, first int64) int64 {
	if first == nilRef {
		return nilRef
	}
	pairs := h.pairs[:0]
	for first != nilRef {
		a := first
		b := h.sibling(t, a)
		if b == nilRef {
			h.setSibling(t, a, nilRef)
			pairs = append(pairs, a)
			break
		}
		first = h.sibling(t, b)
		h.setSibling(t, a, nilRef)
		h.setSibling(t, b, nilRef)
		pairs = append(pairs, h.meld(t, a, b))
	}
	root := pairs[len(pairs)-1]
	for i := len(pairs) - 2; i >= 0; i-- {
		root = h.meld(t, root, pairs[i])
	}
	h.pairs = pairs
	return root
}
