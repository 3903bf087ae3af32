package locks

import (
	"sync"
	"sync/atomic"

	"argo/internal/fabric"
	"argo/internal/probe"
	"argo/internal/sim"
)

// delegQueue is the delegation queue of QD locking, the one mechanism under
// QDLock (one queue, H = *sim.Proc) and HQDLock (one per node, H =
// *core.Thread): whoever finds the queue free becomes the helper, opens it,
// runs its own section and then those other threads put in the ring meanwhile.
//
// The ring is the QD paper's fixed-size delegation buffer, sized once when
// the lock is built (delegRing entries), and its length bounds two things,
// neither of them the batch: how many sections may be queued at once (a
// delegator that finds the ring full parks) and how many the helper dequeues
// before it closes the queue. What is still queued at the close runs too —
// its delegators may have detached — so one opening executes up to
// 2·len(ring)+1 sections. Publishing a section costs its delegator, and
// pulling one costs the helper, one same-socket transfer (LocalLatency: a
// CAS and a cache-line push toward the helper, and the pull back).
//
// The ring's entries, like every field below mu, are touched only under mu:
// written by delegators while open is set, emptied by the helper before it
// clears held. A warm queue allocates nothing: a waited section's delegator
// sleeps on a recycled sim.Waiter.
type delegQueue[H any] struct {
	fab *fabric.Fabric

	// obs hears of every entry's enqueue, run, completion and wait under
	// an edge key made of key and seq; nil (QD always) runs the queue bare.
	obs *probe.Spine
	key uint64
	seq *atomic.Uint64

	mu      sync.Mutex
	held    bool
	open    bool
	ring    []delegEntry[H]
	head, n int
	h       holder
	waiters sim.WaitQueue // delegators that found the ring closed or full
}

// delegEntry is one critical section in the ring: a closure (section) or a
// function and its argument word (fn, arg), the QD paper's function plus
// arguments copied into the buffer. A caller that builds fn once delegates
// per-operation data without allocating a closure for it.
type delegEntry[H any] struct {
	section func(h H)            // nil when fn is set
	fn      func(h H, arg int64) // runs as fn(h, arg)
	arg     int64
	enqAt   sim.Time
	done    *sim.Waiter // woken with the completion time; nil when detached
	key     uint64      // edge key for observers; zero when none are attached
}

// run executes the entry's section on helper h.
func (e *delegEntry[H]) run(h H) {
	if e.fn != nil {
		e.fn(h, e.arg)
		return
	}
	e.section(h)
}

// delegRing is the delegation ring's length on every QD and HQDL queue.
const delegRing = 128

// delegate hands e's section to the current helper and returns the entry as
// queued, to await when wait is set. A caller that finds the queue free becomes the
// helper instead: it runs e itself through serve, then calls release; one
// that finds it closed or full parks until release or a dequeue wakes it.
func (q *delegQueue[H]) delegate(p *sim.Proc, e delegEntry[H], wait bool) (queued delegEntry[H], helper bool) {
	q.mu.Lock()
	for q.held && (!q.open || q.n == len(q.ring)) {
		q.waiters.Park(&q.mu, 0)
	}
	if !q.held {
		q.held, q.open = true, true
		q.h.acquired(p, q.fab)
		q.mu.Unlock()
		return queued, true
	}
	enq := q.fab.P.LocalLatency
	e.enqAt = p.Now() + enq
	if q.obs != nil {
		e.key = q.key<<32 | q.seq.Add(1)
		q.obs.Emit(probe.Event{Kind: probe.Delegate, Node: p.Node, Tid: probe.TidOf(p.Socket, p.Core), Start: e.enqAt, T: e.enqAt, Key: e.key})
	}
	if wait {
		e.done = sim.NewWaiter()
	}
	q.ring[(q.head+q.n)%len(q.ring)] = e
	q.n++
	q.mu.Unlock()
	p.Advance(enq)
	return e, false
}

// await sleeps until the queued entry e has run and advances p to its
// completion time. A wait nobody redeems leaves its Waiter to the collector.
func (q *delegQueue[H]) await(p *sim.Proc, e delegEntry[H]) {
	t0 := p.Now()
	p.AdvanceTo(e.done.Sleep().At)
	q.obs.Sync(p, t0, probe.DelegateWait, e.key, int64(e.key), 0)
}

// serve is the helper's turn: its own section, then the ring's. When the
// ring runs dry or a ring's length of sections have been dequeued the queue
// closes; what it holds then still runs. Returns the count.
func (q *delegQueue[H]) serve(h H, p *sim.Proc, own delegEntry[H]) int {
	own.run(h)
	sections := 1
	for open := true; ; sections++ {
		if open {
			p.Point(sim.Serve)
		}
		q.mu.Lock()
		if open && (q.n == 0 || sections > len(q.ring)) {
			open, q.open = false, false
		}
		if q.n == 0 {
			q.mu.Unlock()
			return sections
		}
		e := q.ring[q.head]
		q.ring[q.head] = delegEntry[H]{} // the ring must not keep the section's captures alive
		q.head = (q.head + 1) % len(q.ring)
		q.n--
		if open {
			q.waiters.Pop().Wake() // a slot is free: the oldest delegator that found the ring full takes it
		}
		q.mu.Unlock()
		p.Advance(q.fab.P.LocalLatency)
		p.AdvanceTo(e.enqAt)
		q.obs.Sync(p, p.Now(), probe.DelegateRun, e.key, 0, 0)
		e.run(h)
		q.fab.NodeStats(p.Node).DelegatedSections.Add(1)
		q.obs.Sync(p, p.Now(), probe.DelegateDone, e.key, 0, int64(q.key))
		if e.done != nil {
			e.done.At = p.Now()
			e.done.Wake()
		}
	}
}

// release ends the helper's turn and wakes every parked delegator: the next
// thread to find the queue free becomes the next helper.
func (q *delegQueue[H]) release(p *sim.Proc) {
	q.mu.Lock()
	q.held = false
	q.h.released(p)
	q.waiters.WakeAll(0)
	q.mu.Unlock()
}
