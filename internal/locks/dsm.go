package locks

import (
	"sync"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/health"
	"argo/internal/probe"
	"argo/internal/sim"
)

// DSMLock is a mutual-exclusion lock for threads anywhere in the cluster.
// Implementations apply Carina's fence discipline themselves: SI on acquire,
// SD on release (synchronization is a data race, so the coherence layer
// must be told about it).
type DSMLock interface {
	Lock(t *core.Thread)
	Unlock(t *core.Thread)
}

// ---------------------------------------------------------------------------
// Global ticket lock (no fences — building block)
// ---------------------------------------------------------------------------

// globalTicketLock is a FIFO spin lock whose word lives at one home node and
// is manipulated purely with one-sided operations: fetch-and-increment to
// take a ticket, remote polling until the grant counter matches. It carries
// no fence semantics of its own; it is the building block under the fenced
// DSM locks and under HQDL.
//
// Crash recovery (Cygnus): every acquisition stamps the holder's node as a
// lease. When the membership excises a dead node — which happens one failure
// detection timeout after the crash, with every thread of the dead node
// provably stopped — a lock whose lease names the corpse frees itself: the
// head waiter (or, with an empty queue, the next acquirer) is granted and
// pays one extra remote CAS, the excision that swings the lock word past the
// dead holder's stale ticket. Parked waiters of the excised node are pruned
// and unwound.
//
// Cygnus II extends this two ways. With crashpoints=lock armed, acquire
// entry and release entry are crash safe points: a node scheduled to die at
// the episode its current interval ends at unwinds here instead of at the
// next barrier (a holder dying at release expires its own lease — see
// unlockSafePoint). And when a partial partition fences the holder's node
// (suspect, not death), the lease is expired identically, except the fenced
// node is alive: its eventual stale release is rejected by the holder
// check, and healing the partition never resurrects the expired lease.
type globalTicketLock struct {
	c    *core.Cluster
	home int
	key  uint64 // fault identity of the ticket/grant words, and the lock's name to observers

	mu      sync.Mutex
	locked  bool
	holder  int           // node whose thread holds the lock; -1 when free
	waiters sim.WaitQueue // tagged by node; the grantor fills in the sim.Grant
	freeAt  sim.Time

	// pendingExcise marks a dead-holder recovery that found no queued
	// waiter: the next acquirer pays the excision CAS. pendingDead is the
	// node it excises.
	pendingExcise bool
	pendingDead   int
}

// newGlobalTicketLock creates a ticket lock homed at node home. The lock's
// fault-identity key comes from the cluster's per-cluster sequence, so a
// workload that builds its locks in setup order sees the same injected
// schedule run after run.
func newGlobalTicketLock(c *core.Cluster, home int) *globalTicketLock {
	l := &globalTicketLock{c: c, home: home, key: c.NextSyncKey(), holder: -1}
	c.Health.OnExcise(l.onExcise)
	c.Health.OnSuspect(l.onSuspect)
	return l
}

// onExcise recovers the lock from a dead node: parked waiters of the corpse
// are pruned (their threads, if any remain, unwind with a CrashSignal), and
// a lease held by the corpse is expired and handed to the head waiter.
func (l *globalTicketLock) onExcise(node int, at sim.Time) {
	l.mu.Lock()
	l.waiters.WakeAll(node)
	l.mu.Unlock()
	l.expireLease(node, at)
}

// onSuspect fences a partitioned lock holder: its lease is expired exactly
// as for a crash, so the majority side keeps making progress while the cut
// stands. The suspected node's parked waiters are NOT pruned — the node is
// alive and its threads are granted normally once their turn comes. When
// the stale holder's release finally lands (its grant write retries across
// the cut until the heal), Unlock's holder check rejects it: a heal never
// resurrects a fenced lease.
func (l *globalTicketLock) onSuspect(node int, at sim.Time) {
	l.expireLease(node, at)
}

// expireLease frees the lock from a holder that crashed or was fenced by a
// partition: the lease expires at time at, and the head waiter (or, with
// an empty queue, the next acquirer) recovers the lock by paying the
// excision CAS that swings the lock word past the stale ticket. No-op when
// node does not hold the lease.
func (l *globalTicketLock) expireLease(node int, at sim.Time) {
	l.mu.Lock()
	var grant *sim.Waiter
	if l.locked && l.holder == node {
		if at > l.freeAt {
			l.freeAt = at
		}
		if obs := l.c.Obs; obs != nil {
			// The expired lease is the causal source of the excision grant:
			// it is reported on the stale holder's lane at the moment the
			// lock frees.
			obs.Emit(probe.Event{Kind: probe.LeaseExpired, Node: node, Start: l.freeAt, T: l.freeAt, Key: l.key, Arg: int64(node)})
		}
		l.holder = -1
		if grant = l.waiters.Pop(); grant != nil {
			grant.Grant = sim.Grant{Granted: true, Excise: true, Dead: node}
		} else {
			l.locked = false
			l.pendingExcise = true
			l.pendingDead = node
		}
	}
	l.mu.Unlock()
	grant.Wake()
}

// payExcision charges the grantee the remote CAS that swings the lock word
// past a dead holder and reports the recovery.
func (l *globalTicketLock) payExcision(t *core.Thread, dead int) {
	l.c.Fab.RemoteAtomic(t.P, l.home, l.key)
	l.c.Obs.Sync(t.P, t.P.Now(), probe.LockExcision, l.key, int64(dead), 0)
}

// Lock takes a ticket (one remote atomic) and waits for the grant. The
// handover is observed by polling the remote grant word, which costs a
// round trip after the previous holder releases. When the ticket atomic is
// dropped or fails transiently (Corvus), the fabric reissues it after its
// capped exponential backoff — safe because the transient fails before
// taking effect, so no ticket is ever burned.
func (l *globalTicketLock) Lock(t *core.Thread) {
	// Safe point BEFORE the ticket atomic (crashpoints=lock): a dying
	// acquirer unwinds while it holds nothing and owes nothing.
	t.CrashSafePoint(fault.SafeLock)
	t0 := t.P.Now()
	if n := l.c.Fab.RemoteAtomic(t.P, l.home, l.key); n > 0 {
		l.c.Obs.Sync(t.P, t.P.Now(), probe.LockRetries, l.key, int64(n), 0)
	}
	l.mu.Lock()
	// A free lock may carry the excision a recovery with no waiter left pending.
	g := sim.Grant{Granted: true, Excise: l.pendingExcise, Dead: l.pendingDead}
	parked := l.locked
	if !parked {
		l.locked, l.pendingExcise = true, false
	} else if g = l.waiters.Park(&l.mu, t.Node); !g.Granted {
		// Pruned: our node was excised while we were parked.
		l.mu.Unlock()
		panic(health.CrashSignal{Node: t.Node, Episode: t.SyncEpoch})
	}
	l.holder = t.Node
	waited := parked || l.freeAt > t.P.Now()
	t.P.AdvanceTo(l.freeAt)
	l.mu.Unlock()
	// A wait is reported with the causal edge that ended it: the expired
	// lease, or the previous holder's release.
	won := probe.TicketWait
	if g.Excise {
		l.payExcision(t, g.Dead)
		won = probe.TicketRecover
	}
	if parked {
		// The winning poll that observes the grant.
		l.c.Fab.RemoteRead(t.P, l.home, 8, l.key)
	}
	if waited || g.Excise {
		l.c.Obs.Sync(t.P, t0, won, l.key, int64(l.key), 0)
	}
	t.P.Point(sim.Acquired)
}

// unlockSafePoint delivers a pending crash verdict at the release point
// (crashpoints=lock). A holder that dies here dies mid-critical-section:
// before unwinding, it expires its own lease one failure-detection timeout
// out, so the head waiter recovers the lock with the excision CAS.
// Survivors parked in the queue could otherwise never reach the membership
// barrier whose reconfiguration would expire the lease — the recovery must
// not depend on the progress of the threads it unblocks.
func (l *globalTicketLock) unlockSafePoint(t *core.Thread) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(health.CrashSignal); ok {
				l.expireLease(t.Node, t.P.Now()+fault.Timeout)
			}
			panic(r)
		}
	}()
	t.CrashSafePoint(fault.SafeLock)
}

// Unlock bumps the grant counter (one remote write). A lost grant write
// would wedge every waiter; the fabric reissues it until it is delivered.
func (l *globalTicketLock) Unlock(t *core.Thread) {
	l.unlockSafePoint(t)
	if n := l.c.Fab.RemoteWrite(t.P, l.home, 8, l.key); n > 0 {
		l.c.Obs.Sync(t.P, t.P.Now(), probe.LockRetries, l.key, int64(n), 0)
	}
	l.mu.Lock()
	if l.holder != t.Node {
		// Stale release: our lease was expired while we were fenced
		// (partition) or excised, and the lock has moved on. The write
		// landed but the grant word's generation check rejects it.
		l.mu.Unlock()
		return
	}
	l.c.Obs.Sync(t.P, t.P.Now(), probe.TicketRelease, l.key, 0, 0)
	l.freeAt = t.P.Now()
	l.holder = -1
	next := l.waiters.Pop()
	if l.locked = next != nil; l.locked {
		next.Granted = true
	}
	l.mu.Unlock()
	next.Wake()
}

// ---------------------------------------------------------------------------
// Fenced DSM locks
// ---------------------------------------------------------------------------

// newFencedTicket builds the ticket lock under a fenced DSM lock and
// announces the lock — a probe.Lock* algorithm, named by the ticket word's
// key — to the cluster's observers, who then hear of each acquisition (call
// to critical-section entry) and each release (time held, fence included).
func newFencedTicket(c *core.Cluster, home int, algo int64) *globalTicketLock {
	g := newGlobalTicketLock(c, home)
	if c.Obs != nil {
		c.Obs.Emit(probe.Event{Kind: probe.LockNew, Key: g.key, Arg: algo})
	}
	return g
}

// DSMMutex is the straightforward port of a mutex to Argo: a global ticket
// lock with an SI fence on every acquire and an SD fence on every release.
// Every critical section pays both fences plus the misses the SI causes.
type DSMMutex struct {
	g      *globalTicketLock
	heldAt sim.Time // written and read only while holding the lock
}

// NewDSMMutex creates a fenced global mutex homed at node home.
func NewDSMMutex(c *core.Cluster, home int) *DSMMutex {
	return &DSMMutex{g: newFencedTicket(c, home, probe.LockMutex)}
}

var _ DSMLock = (*DSMMutex)(nil)

// Lock acquires the mutex and self-invalidates the caller's node.
func (l *DSMMutex) Lock(t *core.Thread) {
	t0 := t.P.Now()
	l.g.Lock(t)
	owned := t.P.Now()
	t.Coh.SIFence(t.P)
	l.heldAt = t.P.Now()
	l.g.c.Obs.Sync(t.P, t0, probe.LockAcquire, l.g.key, probe.LockMutex, owned-t0)
}

// Unlock self-downgrades the caller's node and releases.
func (l *DSMMutex) Unlock(t *core.Thread) {
	t.Coh.SDFence(t.P)
	l.g.c.Obs.Sync(t.P, l.heldAt, probe.LockRelease, l.g.key, 0, 0)
	l.g.Unlock(t)
}

// DSMCohortLock is a state-of-the-art Cohort lock ported to Argo: a local
// queue lock per node plus a global ticket lock owned by the node whose
// thread holds the cohort, handing over locally while local waiters exist.
// Being a generic lock, it must still fence around every critical section —
// the coherence layer cannot know that a handover stayed on the node. This
// is the paper's Figure 12 baseline.
type DSMCohortLock struct {
	c      *core.Cluster
	global *globalTicketLock
	nodes  []*cohortSocket
	heldAt sim.Time // written and read only while holding the lock
}

// NewDSMCohortLock creates a cohort lock over the cluster, homed at node 0.
func NewDSMCohortLock(c *core.Cluster) *DSMCohortLock {
	l := &DSMCohortLock{c: c, global: newFencedTicket(c, 0, probe.LockCohort)}
	for i := 0; i < c.Cfg.Nodes; i++ {
		l.nodes = append(l.nodes, &cohortSocket{
			local: fifoCore{fab: c.Fab, enqCost: c.Fab.P.LocalLatency, hoCost: c.Fab.P.SocketLatency},
		})
	}
	return l
}

var _ DSMLock = (*DSMCohortLock)(nil)

// Lock acquires the cohort lock and self-invalidates the caller's node.
func (l *DSMCohortLock) Lock(t *core.Thread) {
	t0 := t.P.Now()
	s := l.nodes[t.Node]
	s.local.lock(t.P)
	if !s.ownsGlobal {
		l.global.Lock(t)
		s.ownsGlobal = true
		s.batch = 0
	}
	owned := t.P.Now()
	t.Coh.SIFence(t.P)
	l.heldAt = t.P.Now()
	l.c.Obs.Sync(t.P, t0, probe.LockAcquire, l.global.key, probe.LockCohort, owned-t0)
}

// Unlock self-downgrades and hands over, preferring a waiter on this node.
func (l *DSMCohortLock) Unlock(t *core.Thread) {
	t.Coh.SDFence(t.P)
	s := l.nodes[t.Node]
	s.batch++
	if s.local.hasWaiters() && s.batch < cohortBatchLimit {
		l.c.Fab.NodeStats(t.Node).LockHandoversLocal.Add(1)
		l.c.Obs.Sync(t.P, l.heldAt, probe.LockRelease, l.global.key, 1, 0)
		s.local.unlock(t.P)
		return
	}
	l.c.Fab.NodeStats(t.Node).LockHandoversRemote.Add(1)
	l.c.Obs.Sync(t.P, l.heldAt, probe.LockRelease, l.global.key, 0, 1)
	s.ownsGlobal = false
	l.global.Unlock(t)
	s.local.unlock(t.P)
}
