// Package pairingheap implements the pairing heap of Fredman, Sedgewick,
// Sleator and Tarjan — the fast sequential priority queue the paper's
// locking microbenchmark wraps in a lock (§5.3). The native in-process heap
// serves the single-machine lock comparison (Figure 11) and is the tests'
// reference. One index-arena algorithm (arena) runs over two word stores: a
// DSM-resident heap whose nodes live in Argo's global memory and are
// manipulated through the page cache (Figure 12), so critical-section data
// really is migratory, and a UPC heap in a PGAS shared array, where every
// access is a fine-grained one-sided operation.
package pairingheap

// node is a native pairing-heap node.
type node struct {
	key     int64
	child   *node // leftmost child
	sibling *node // next sibling to the right
}

// Heap is a native (single-process) min-heap. Not safe for concurrent use;
// the microbenchmark serializes access through the lock under test.
type Heap struct {
	root *node
	size int
}

// New returns an empty native pairing heap.
func New() *Heap { return &Heap{} }

// Len returns the number of elements.
func (h *Heap) Len() int { return h.size }

// Insert adds key to the heap.
func (h *Heap) Insert(key int64) {
	h.root = meld(h.root, &node{key: key})
	h.size++
}

// Min returns the minimum key without removing it.
func (h *Heap) Min() (int64, bool) {
	if h.root == nil {
		return 0, false
	}
	return h.root.key, true
}

// ExtractMin removes and returns the minimum key.
func (h *Heap) ExtractMin() (int64, bool) {
	if h.root == nil {
		return 0, false
	}
	min := h.root.key
	h.root = mergePairs(h.root.child)
	h.size--
	return min, true
}

func meld(a, b *node) *node {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if b.key < a.key {
		a, b = b, a
	}
	b.sibling = a.child
	a.child = b
	return a
}

// mergePairs performs the classic two-pass pairing: meld siblings pairwise
// left to right, then meld the pair roots right to left.
func mergePairs(first *node) *node {
	if first == nil {
		return nil
	}
	// Pass 1: pairwise.
	var pairs []*node
	for first != nil {
		a := first
		b := first.sibling
		if b == nil {
			a.sibling = nil
			pairs = append(pairs, a)
			break
		}
		first = b.sibling
		a.sibling, b.sibling = nil, nil
		pairs = append(pairs, meld(a, b))
	}
	// Pass 2: right to left.
	root := pairs[len(pairs)-1]
	for i := len(pairs) - 2; i >= 0; i-- {
		root = meld(root, pairs[i])
	}
	return root
}
