package pairingheap

import "argo/internal/core"

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
	arena[dsmWords]
	meta  core.I64Slice // [root, size, freeHead, next, cap]
	nodes core.I64Slice // cap * 3: key, child, sibling
}

// dsmWords is a DSMHeap's words as thread t reaches them.
type dsmWords struct {
	h *DSMHeap
	t *core.Thread
}

func (w dsmWords) meta(i int) int64       { return w.t.GetI64(w.h.meta, i) }
func (w dsmWords) setMeta(i int, v int64) { w.t.SetI64(w.h.meta, i, v) }
func (w dsmWords) node(i int) int64       { return w.t.GetI64(w.h.nodes, i) }
func (w dsmWords) setNode(i int, v int64) { w.t.SetI64(w.h.nodes, i, v) }

// NewDSMHeap allocates a heap with room for capacity elements in c's global
// memory and initializes it (zero-cost init, outside measurement).
func NewDSMHeap(c *core.Cluster, capacity int) *DSMHeap {
	h := &DSMHeap{
		arena: arena[dsmWords]{cap: capacity},
		meta:  c.AllocI64(metaLen),
		nodes: c.AllocI64(capacity * 3),
	}
	c.InitI64(h.meta, []int64{nilRef, 0, nilRef, 0, int64(capacity)})
	return h
}

// Len returns the number of elements.
func (h *DSMHeap) Len(t *core.Thread) int { return int(t.GetI64(h.meta, mSize)) }

// Insert adds key to the heap. The caller must hold the protecting lock.
func (h *DSMHeap) Insert(t *core.Thread, key int64) { h.insert(dsmWords{h, t}, key) }

// ExtractMin removes and returns the minimum key. The caller must hold the
// protecting lock.
func (h *DSMHeap) ExtractMin(t *core.Thread) (int64, bool) { return h.extractMin(dsmWords{h, t}) }
