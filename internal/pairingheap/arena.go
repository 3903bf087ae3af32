package pairingheap

import "fmt"

// words is the memory a word-store heap lives in: its meta words and its
// node words (three per node: key, child, sibling), reached through whoever
// calls — plain process memory, an Argo thread's page cache or a UPC rank's
// fine-grained accesses.
type words interface {
	meta(i int) int64
	setMeta(i int, v int64)
	node(i int) int64
	setNode(i int, v int64)
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

// arena is the pairing heap over a word store: nodes are indices into the
// node words, freed nodes chain through their child word, and the order of
// every word access is the algorithm's, whatever store it runs on. It is
// sequential; callers serialize access with a lock.
type arena[W words] struct {
	cap   int
	pairs []int64 // mergePairs' scratch: the heap is only touched under its lock
}

func (a *arena[W]) key(w W, n int64) int64     { return w.node(int(n) * 3) }
func (a *arena[W]) child(w W, n int64) int64   { return w.node(int(n)*3 + 1) }
func (a *arena[W]) sibling(w W, n int64) int64 { return w.node(int(n)*3 + 2) }
func (a *arena[W]) setKey(w W, n, v int64)     { w.setNode(int(n)*3, v) }
func (a *arena[W]) setChild(w W, n, v int64)   { w.setNode(int(n)*3+1, v) }
func (a *arena[W]) setSibling(w W, n, v int64) { w.setNode(int(n)*3+2, v) }

// alloc pops a node from the free list or carves a fresh one.
func (a *arena[W]) alloc(w W) int64 {
	free := w.meta(mFree)
	if free != nilRef {
		w.setMeta(mFree, a.child(w, free))
		return free
	}
	next := w.meta(mNext)
	if next >= int64(a.cap) {
		panic(fmt.Sprintf("pairingheap: heap full (cap %d)", a.cap))
	}
	w.setMeta(mNext, next+1)
	return next
}

func (a *arena[W]) release(w W, n int64) {
	a.setChild(w, n, w.meta(mFree))
	w.setMeta(mFree, n)
}

func (a *arena[W]) insert(w W, key int64) {
	n := a.alloc(w)
	a.setKey(w, n, key)
	a.setChild(w, n, nilRef)
	a.setSibling(w, n, nilRef)
	root := w.meta(mRoot)
	w.setMeta(mRoot, a.meld(w, root, n))
	w.setMeta(mSize, w.meta(mSize)+1)
}

func (a *arena[W]) extractMin(w W) (int64, bool) {
	root := w.meta(mRoot)
	if root == nilRef {
		return 0, false
	}
	min := a.key(w, root)
	first := a.child(w, root)
	a.release(w, root)
	w.setMeta(mRoot, a.mergePairs(w, first))
	w.setMeta(mSize, w.meta(mSize)-1)
	return min, true
}

func (a *arena[W]) meld(w W, x, y int64) int64 {
	if x == nilRef {
		return y
	}
	if y == nilRef {
		return x
	}
	if a.key(w, y) < a.key(w, x) {
		x, y = y, x
	}
	a.setSibling(w, y, a.child(w, x))
	a.setChild(w, x, y)
	return x
}

// mergePairs performs the classic two-pass pairing over node indices: meld
// siblings pairwise left to right, then meld the pair roots right to left.
func (a *arena[W]) mergePairs(w W, first int64) int64 {
	if first == nilRef {
		return nilRef
	}
	pairs := a.pairs[:0]
	for first != nilRef {
		x := first
		y := a.sibling(w, x)
		if y == nilRef {
			a.setSibling(w, x, nilRef)
			pairs = append(pairs, x)
			break
		}
		first = a.sibling(w, y)
		a.setSibling(w, x, nilRef)
		a.setSibling(w, y, nilRef)
		pairs = append(pairs, a.meld(w, x, y))
	}
	root := pairs[len(pairs)-1]
	for i := len(pairs) - 2; i >= 0; i-- {
		root = a.meld(w, root, pairs[i])
	}
	a.pairs = pairs
	return root
}
