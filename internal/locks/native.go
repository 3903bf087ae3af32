package locks

import (
	"sync"

	"argo/internal/fabric"
	"argo/internal/sim"
)

// ---------------------------------------------------------------------------
// Pthread-style mutex
// ---------------------------------------------------------------------------

// PthreadMutex models a plain pthread mutex: no queue, no locality. Under
// contention every waiter hammers the lock word, so a handover additionally
// costs a penalty proportional to the number of waiters (the invalidation
// storm that makes test-and-set locks collapse on NUMA machines). It is
// unfair: Unlock wakes the oldest waiter to re-check, and a thread that finds
// the lock free takes it first (barging); the loser parks again at the back.
type PthreadMutex struct {
	fab *fabric.Fabric

	mu      sync.Mutex // held while the state changes, never across the section
	locked  bool
	waiters sim.WaitQueue
	h       holder
}

// NewPthreadMutex creates a pthread-style mutex over fabric f.
func NewPthreadMutex(f *fabric.Fabric) *PthreadMutex { return &PthreadMutex{fab: f} }

// Lock acquires the mutex.
func (l *PthreadMutex) Lock(p *sim.Proc) {
	l.mu.Lock()
	for l.locked {
		l.waiters.Park(&l.mu, 0)
	}
	l.locked = true
	l.h.acquired(p, l.fab)
	w := sim.Time(l.waiters.Len())
	l.mu.Unlock()
	p.Advance(w * (l.fab.P.SocketLatency / 2)) // half a cross-socket transfer per waiter
	p.Point(sim.Acquired)
}

// Unlock releases the mutex and wakes the oldest waiter to re-check.
func (l *PthreadMutex) Unlock(p *sim.Proc) {
	l.mu.Lock()
	l.h.released(p)
	l.locked = false
	next := l.waiters.Pop()
	l.mu.Unlock()
	next.Wake()
}

// ---------------------------------------------------------------------------
// FIFO queue core (under both cohort locks)
// ---------------------------------------------------------------------------

// fifoCore is a strict-FIFO queue lock: waiters are released in arrival
// order. MCS and CLH differ in how the queue is threaded through memory;
// at the level of this simulator they are this one mechanism with different
// constants for enqueueing and handover, which the cohort locks set.
type fifoCore struct {
	fab *fabric.Fabric

	mu      sync.Mutex
	locked  bool
	waiters sim.WaitQueue
	h       holder

	enqCost sim.Time // atomic swap/append on the shared tail
	hoCost  sim.Time // extra cost of waking the successor
}

func (l *fifoCore) lock(p *sim.Proc) {
	l.mu.Lock()
	if !l.locked {
		l.locked = true
		l.h.acquired(p, l.fab)
		p.Advance(l.enqCost)
	} else {
		p.Advance(l.enqCost)
		l.waiters.Park(&l.mu, 0)
		// The releaser left h untouched for us; charge serialization+handover.
		l.h.acquired(p, l.fab)
		p.Advance(l.hoCost)
	}
	l.mu.Unlock()
	p.Point(sim.Acquired)
}

func (l *fifoCore) unlock(p *sim.Proc) {
	l.mu.Lock()
	l.h.released(p)
	next := l.waiters.Pop()
	l.locked = next != nil
	l.mu.Unlock()
	next.Wake()
}

// hasWaiters reports whether threads are queued (used by the cohort lock's
// pass-locally decision).
func (l *fifoCore) hasWaiters() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiters.Len() > 0
}

// ---------------------------------------------------------------------------
// Cohort lock
// ---------------------------------------------------------------------------

// CohortLock is a NUMA-aware lock (Dice, Marathe, Shavit): one queue lock
// per socket plus a global lock held by the socket whose thread currently
// owns the cohort. While waiters from the same socket exist and the batch
// limit is not exhausted, the lock is handed over locally (cheap); only
// then does the global lock — and the migratory data — move to another
// socket.
type CohortLock struct {
	fab        *fabric.Fabric
	global     fifoCore
	socks      []*cohortSocket
	batchLimit int // consecutive local handovers (cohortBatchLimit; tests lower it)
}

// cohortBatchLimit bounds consecutive local handovers (fairness) in both
// cohort locks.
const cohortBatchLimit = 64

type cohortSocket struct {
	local fifoCore
	// ownsGlobal and batch are protected by holding the local lock.
	ownsGlobal bool
	batch      int
}

// NewCohortLock creates a cohort lock for a machine with sockets NUMA
// domains.
func NewCohortLock(f *fabric.Fabric, sockets int) *CohortLock {
	l := &CohortLock{
		fab:        f,
		global:     fifoCore{fab: f, enqCost: f.P.SocketLatency, hoCost: f.P.SocketLatency},
		batchLimit: cohortBatchLimit,
	}
	for i := 0; i < sockets; i++ {
		l.socks = append(l.socks, &cohortSocket{
			local: fifoCore{fab: f, enqCost: f.P.LocalLatency, hoCost: f.P.LocalLatency},
		})
	}
	return l
}

// Lock acquires the cohort lock.
func (l *CohortLock) Lock(p *sim.Proc) {
	s := l.socks[p.Socket%len(l.socks)]
	s.local.lock(p)
	if !s.ownsGlobal {
		l.global.lock(p)
		s.ownsGlobal = true
		s.batch = 0
	}
}

// Unlock releases the cohort lock, preferring a local handover.
func (l *CohortLock) Unlock(p *sim.Proc) {
	s := l.socks[p.Socket%len(l.socks)]
	s.batch++
	if s.local.hasWaiters() && s.batch < l.batchLimit {
		l.fab.NodeStats(p.Node).LockHandoversLocal.Add(1)
		s.local.unlock(p)
		return
	}
	l.fab.NodeStats(p.Node).LockHandoversRemote.Add(1)
	s.ownsGlobal = false
	l.global.unlock(p)
	s.local.unlock(p)
}
