package probe

import (
	"slices"
	"sync"
)

// Lanes is the bounded buffer a recording sink keeps: one append-only lane
// per node, so the threads of different nodes do not contend, with a cap on
// each lane beyond which records are counted and dropped. A nil *Lanes holds
// nothing and ignores appends.
type Lanes[T ordered] struct {
	mu    sync.Mutex
	lanes map[int]*lane[T]
	limit int
}

type lane[T ordered] struct {
	mu    sync.Mutex
	recs  []T
	drops int
}

// NewLanes creates a buffer keeping at most limit records per node.
func NewLanes[T ordered](limit int) *Lanes[T] {
	return &Lanes[T]{lanes: map[int]*lane[T]{}, limit: limit}
}

// Append adds v to node's lane. Safe for concurrent use; one thread's records
// keep their order within the lane.
func (b *Lanes[T]) Append(node int, v T) {
	if b == nil {
		return
	}
	b.mu.Lock()
	l, ok := b.lanes[node]
	if !ok {
		l = &lane[T]{}
		b.lanes[node] = l
	}
	b.mu.Unlock()
	l.mu.Lock()
	if len(l.recs) < b.limit {
		l.recs = append(l.recs, v)
	} else {
		l.drops++
	}
	l.mu.Unlock()
}

// each visits every lane under its lock.
func (b *Lanes[T]) each(fn func(l *lane[T])) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lanes {
		l.mu.Lock()
		fn(l)
		l.mu.Unlock()
	}
}

// Each calls fn on every buffered record in place — no copy, no sort.
func (b *Lanes[T]) Each(fn func(T)) {
	b.each(func(l *lane[T]) {
		for _, v := range l.recs {
			fn(v)
		}
	})
}

// Sorted returns a copy of all records in the canonical order (see Sort), so
// the result is a function of the record multiset, not of how the host
// interleaved the appends. Nil when nothing is buffered.
func (b *Lanes[T]) Sorted() []T {
	var out []T
	b.each(func(l *lane[T]) { out = append(out, l.recs...) })
	Sort(out)
	return out
}

// Len reports the number of buffered records.
func (b *Lanes[T]) Len() (n int) {
	b.each(func(l *lane[T]) { n += len(l.recs) })
	return n
}

// Dropped reports how many records the per-node limit discarded.
func (b *Lanes[T]) Dropped() (n int) {
	b.each(func(l *lane[T]) { n += l.drops })
	return n
}

// Reset discards all records and the drop counts.
func (b *Lanes[T]) Reset() {
	b.each(func(l *lane[T]) { l.recs, l.drops = nil, 0 })
}

// Order is a record's place in the canonical order: records compare by its
// elements, first to last. Virtual time leads, then the lane (node, thread),
// then what tells two records of one instant on one lane apart.
type Order [9]int64

// ordered is what a Lanes buffer holds.
type ordered interface{ Order() Order }

// Sort sorts recs into the canonical order. It is total up to records equal in
// every field, so equal multisets sort to equal slices.
func Sort[T ordered](recs []T) {
	slices.SortFunc(recs, func(a, b T) int {
		x, y := a.Order(), b.Order()
		return slices.Compare(x[:], y[:])
	})
}
