// Package pairingheap implements the pairing heap of Fredman, Sedgewick,
// Sleator and Tarjan — the fast sequential priority queue the paper's
// locking microbenchmark wraps in a lock (§5.3). One index-arena algorithm
// (arena) runs over three word stores, so the three lock figures run one
// access sequence over three memory models: a LocalHeap in one process's
// memory (Figure 11), a DSM-resident heap whose nodes live in Argo's global
// memory and are manipulated through the page cache (Figure 12), so
// critical-section data really is migratory, and a UPC heap in a PGAS shared
// array, where every access is a fine-grained one-sided operation.
package pairingheap

// LocalHeap is the pairing heap in one process's memory. It charges no
// virtual time: the native lock benchmark models the heap's data movement
// separately. Callers serialize access with the lock under test.
type LocalHeap struct {
	arena[localWords]
	words localWords
}

// localWords is a LocalHeap's meta words followed by its node words.
type localWords []int64

func (w localWords) meta(i int) int64       { return w[i] }
func (w localWords) setMeta(i int, v int64) { w[i] = v }
func (w localWords) node(i int) int64       { return w[metaLen+i] }
func (w localWords) setNode(i int, v int64) { w[metaLen+i] = v }

// NewLocalHeap returns an empty heap with room for capacity elements.
func NewLocalHeap(capacity int) *LocalHeap {
	w := make(localWords, metaLen+capacity*3)
	copy(w, []int64{nilRef, 0, nilRef, 0, int64(capacity)})
	return &LocalHeap{arena: arena[localWords]{cap: capacity}, words: w}
}

// Insert adds key to the heap.
func (h *LocalHeap) Insert(key int64) { h.insert(h.words, key) }

// ExtractMin removes and returns the minimum key.
func (h *LocalHeap) ExtractMin() (int64, bool) { return h.extractMin(h.words) }
