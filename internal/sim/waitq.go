package sim

import (
	"sync"

	"argo/internal/sparse"
)

// Grant is what a waker leaves for the waiter it wakes. The zero value is
// "woken without the lock" (by WakeAll); plain FIFO locks never look at it.
type Grant struct {
	Granted bool // the lock was handed to the waiter
	Excise  bool // the grant expired a dead or fenced holder's lease
	Dead    int  // that holder's node, when Excise is set
	At      Time // a completion time the waker hands over (a delegated section's)
}

// Waiter is one simulated thread's sleep: Sleep blocks until Wake. The two
// are the only blocking channel operations of the simulator's library code.
type Waiter struct {
	Grant
	tag   int
	token chan struct{} // capacity 1: Wake never blocks, and the waiter is reusable
}

// waiters keeps every Waiter between sleeps: one list for the process, not one
// per queue, since barriers and flags die with their cluster.
var waiters sparse.FreeList[Waiter]

// NewWaiter returns a Waiter with a zero Grant, recycled when one is free. A
// thread that waits outside a WaitQueue hands it to its waker and Sleeps on it.
func NewWaiter() *Waiter {
	w := waiters.Get()
	if w == nil {
		return &Waiter{token: make(chan struct{}, 1)}
	}
	w.Grant, w.tag = Grant{}, 0
	return w
}

// Sleep blocks until Wake and returns the Grant the waker left. The Waiter
// goes back to the free list: the caller must not touch it afterwards. A
// Waiter that is never slept on is garbage, not a leak.
func (w *Waiter) Sleep() Grant {
	<-w.token
	g := w.Grant
	waiters.Put(w)
	return g
}

// Wake releases a waiter Pop returned or its sleeper handed over, once its
// Grant is filled in. The waker must not touch w afterwards: the waiter recycles it. Waking the nil
// Waiter of an empty queue does nothing.
func (w *Waiter) Wake() {
	if w != nil {
		w.token <- struct{}{}
	}
}

// WaitQueue is where a simulated thread sleeps until another acts: the FIFO
// under a queue lock, a barrier's episode, a flag's waiters, a rank's inbox.
// It has no lock of its own: every method runs under the mutex of what it
// serves. A waiter is woken by a token where a closed channel could not be
// reused, so a warm queue parks and hands over without allocating. The zero
// value is an empty queue.
type WaitQueue struct {
	parked []*Waiter // oldest first
}

// Len returns the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.parked) }

// Park appends the caller to the queue under tag, sleeps with mu released
// and returns, mu held again as with sync.Cond.Wait, the Grant its waker left.
func (q *WaitQueue) Park(mu *sync.Mutex, tag int) Grant {
	w := NewWaiter()
	w.tag = tag
	q.parked = append(q.parked, w)
	mu.Unlock()
	defer mu.Lock()
	return w.Sleep()
}

// Pop removes and returns the oldest waiter, nil when the queue is empty.
// The caller fills in the Grant and calls Wake.
func (q *WaitQueue) Pop() *Waiter {
	if len(q.parked) == 0 {
		return nil
	}
	w := q.parked[0]
	// Shift down, not reslice: the backing array is the queue's for good.
	q.parked = q.parked[:copy(q.parked, q.parked[1:])]
	return w
}

// WakeAll removes every waiter parked under tag and wakes it, oldest first,
// with a zero Grant; the others keep their order. A barrier or a flag parks
// all its waiters under one tag and wakes them as sync.Cond.Broadcast would,
// each to re-check what it waits for; a lock prunes a dead node's waiters;
// an inbox wakes its rank when the source it waits on sends.
func (q *WaitQueue) WakeAll(tag int) {
	kept := q.parked[:0]
	for _, w := range q.parked {
		if w.tag == tag {
			w.Wake()
		} else {
			kept = append(kept, w)
		}
	}
	q.parked = kept
}
