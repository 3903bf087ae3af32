package sim

import "sync"

// Grant is what a waker leaves for the waiter it wakes. The zero value is
// "woken without the lock" (pruned); plain FIFO locks never look at it.
type Grant struct {
	Granted bool // the lock was handed to the waiter
	Excise  bool // the grant expired a dead or fenced holder's lease
	Dead    int  // that holder's node, when Excise is set
}

// Waiter is one goroutine parked in a WaitQueue.
type Waiter struct {
	Grant
	tag   int
	token chan struct{} // capacity 1: Wake never blocks, and the waiter is reusable
}

// Wake releases a waiter Pop returned, once its Grant is filled in. The
// waker must not touch w afterwards: the waiter recycles it. Waking the nil
// Waiter of an empty queue does nothing.
func (w *Waiter) Wake() {
	if w != nil {
		w.token <- struct{}{}
	}
}

// WaitQueue is the FIFO of parked acquirers under a queue lock. It has no
// lock of its own: every method runs under the mutex of the lock it serves,
// which also guards the pool of idle waiters — woken by a token where a
// closed channel could not be reused, so a warmed-up lock parks and hands
// over without allocating. The zero value is an empty queue.
type WaitQueue struct {
	parked []*Waiter // oldest first
	idle   []*Waiter
}

// Len returns the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.parked) }

// Park appends the caller to the queue under tag, sleeps with mu released
// and returns, mu held again as with sync.Cond.Wait, the Grant its waker left.
func (q *WaitQueue) Park(mu *sync.Mutex, tag int) Grant {
	var w *Waiter
	if n := len(q.idle); n > 0 {
		w, q.idle = q.idle[n-1], q.idle[:n-1]
	} else {
		w = &Waiter{token: make(chan struct{}, 1)}
	}
	w.Grant, w.tag = Grant{}, tag
	q.parked = append(q.parked, w)
	mu.Unlock()
	<-w.token
	mu.Lock()
	q.idle = append(q.idle, w)
	return w.Grant
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

// Prune removes every waiter parked under tag and wakes it with a zero
// Grant; the others keep their order.
func (q *WaitQueue) Prune(tag int) {
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
