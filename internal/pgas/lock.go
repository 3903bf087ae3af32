package pgas

import (
	"sync"

	"argo/internal/sim"
)

// Lock is a upc_lock_t: a FIFO spin lock whose word has affinity to one
// rank. Acquire and release are remote atomics for everyone else, and —
// crucially, §2.1 — UPC has no caching, so everything a critical section
// touches is a fine-grained remote operation for most threads. There are
// no fences to pay (nothing is cached), but there is also nothing to
// amortize: the data never gets closer.
type Lock struct {
	w    *World
	home int    // node holding the lock word
	key  uint64 // fault identity of the lock word

	mu      sync.Mutex
	locked  bool
	waiters sim.WaitQueue
	freeAt  sim.Time
}

// NewLock creates a lock with affinity to rank owner.
func (w *World) NewLock(owner int) *Lock {
	return &Lock{w: w, home: w.NodeOf(owner), key: uint64(owner)}
}

// Lock acquires (upc_lock): one remote atomic to take a ticket, a polling
// round trip to observe the grant.
func (l *Lock) Lock(r *Rank) {
	l.w.Fab.RemoteAtomic(r.P, l.home, l.key)
	l.mu.Lock()
	parked := l.locked
	if parked {
		l.waiters.Park(&l.mu, 0)
	}
	l.locked = true
	r.P.AdvanceTo(l.freeAt)
	l.mu.Unlock()
	if parked {
		l.w.Fab.RemoteRead(r.P, l.home, 8, l.key)
	}
	r.P.Point(sim.Acquired)
}

// Unlock releases (upc_unlock): one remote write of the grant word.
func (l *Lock) Unlock(r *Rank) {
	l.w.Fab.RemoteWrite(r.P, l.home, 8, l.key)
	l.mu.Lock()
	l.freeAt = r.P.Now()
	next := l.waiters.Pop()
	l.locked = next != nil
	l.mu.Unlock()
	next.Wake()
}
