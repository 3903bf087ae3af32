package locks

import (
	"runtime"
	"sync"
	"sync/atomic"

	"argo/internal/core"
	"argo/internal/probe"
	"argo/internal/sim"
)

// HQDLock is Vela's hierarchical queue delegation lock (§4.2 of the paper).
//
// Each node has its own delegation queue; critical sections may only be
// delegated to a helper on the same node. The helper hierarchically acquires
// a global lock on behalf of its node, self-invalidates once ("see" data
// written by earlier critical sections on other nodes), executes its own and
// all locally delegated sections back to back — with no fences in between,
// because the node's threads share one coherent page cache — then
// self-downgrades once and releases the global lock.
//
// Compared to a fenced generic lock this removes two fences (and the misses
// an SI causes) per critical section, and compared to remote delegation it
// removes the need to downgrade on every delegation and invalidate on every
// wait — the insight of §5.3: delegating to a remote node saves nothing.
type HQDLock struct {
	c      *core.Cluster
	global *GlobalTicketLock
	nodes  []*nodeQueue

	// seq numbers delegation entries for the causal edges observers draw
	// from an enqueue to its execution and back to the delegator's wait.
	// Per-entry keys are needed because concurrent delegators share one
	// queue; the counter is probe-only so it never shifts the fault
	// identities NextSyncKey hands out.
	seq atomic.Uint64

	// BatchLimit caps how many sections one queue opening accepts.
	BatchLimit int
	// EnqueueCost is the intra-node delegation cost.
	EnqueueCost sim.Time
	// DequeueCost is the helper's per-section pull cost.
	DequeueCost sim.Time
}

type nodeQueue struct {
	mu    sync.Mutex
	held  bool
	qOpen bool
	queue []hqEntry
	h     holder
}

type hqEntry struct {
	section func(h *core.Thread)
	enqAt   sim.Time
	done    chan sim.Time
	key     uint64 // edge key for observers; zero when none are attached
}

// Delegating is the DSM delegation interface (HQDLock implements it).
type Delegating interface {
	Delegate(t *core.Thread, section func(h *core.Thread))
	DelegateWait(t *core.Thread, section func(h *core.Thread))
}

// NewHQDLock creates a hierarchical QD lock whose global lock word is homed
// at node 0.
func NewHQDLock(c *core.Cluster) *HQDLock {
	l := &HQDLock{
		c:           c,
		global:      newFencedTicket(c, 0, probe.LockHQDL),
		BatchLimit:  128,
		EnqueueCost: c.Fab.P.LocalLatency,
		DequeueCost: c.Fab.P.LocalLatency,
	}
	for i := 0; i < c.Cfg.Nodes; i++ {
		l.nodes = append(l.nodes, &nodeQueue{})
	}
	return l
}

var _ Delegating = (*HQDLock)(nil)

// Delegate submits section and detaches.
func (l *HQDLock) Delegate(t *core.Thread, section func(h *core.Thread)) {
	l.delegate(t, section, false)
}

// DelegateWait submits section and blocks until it has executed. The wait
// needs no fence of its own: results are observed through the node's shared
// page cache, which the helper keeps coherent with its batch-level fences.
func (l *HQDLock) DelegateWait(t *core.Thread, section func(h *core.Thread)) {
	if w := l.delegate(t, section, true); w != nil {
		w(t)
	}
}

// DelegateAsync submits section and returns a wait function, letting the
// caller overlap the section's execution with independent work (detached
// delegation — the mode §6 earmarks for future application reworks). A nil
// return means the caller became the helper and the section already ran.
// As with DelegateWait, no extra fence is needed on the wait.
func (l *HQDLock) DelegateAsync(t *core.Thread, section func(h *core.Thread)) func(t *core.Thread) {
	return l.delegate(t, section, true)
}

func (l *HQDLock) delegate(t *core.Thread, section func(h *core.Thread), wait bool) func(t *core.Thread) {
	nq := l.nodes[t.Node]
	for {
		nq.mu.Lock()
		if !nq.held {
			nq.held = true
			nq.qOpen = true
			nq.h.acquired(t.P, l.c.Fab)
			nq.mu.Unlock()
			l.runHelper(t, nq, section)
			return nil
		}
		if nq.qOpen && len(nq.queue) < l.BatchLimit {
			e := hqEntry{section: section, enqAt: t.P.Now() + l.EnqueueCost}
			if obs := l.c.Obs; obs != nil {
				e.key = l.global.key<<32 | l.seq.Add(1)
				obs.Emit(probe.Event{Kind: probe.Delegate, Node: t.Node, Tid: probe.TidOf(t.P.Socket, t.P.Core), Start: e.enqAt, T: e.enqAt, Key: e.key})
			}
			if wait {
				e.done = make(chan sim.Time, 1)
			}
			nq.queue = append(nq.queue, e)
			nq.mu.Unlock()
			t.P.Advance(l.EnqueueCost)
			if wait {
				return func(t *core.Thread) {
					t0 := t.P.Now()
					t.P.AdvanceTo(<-e.done)
					l.c.Obs.Sync(t.P, t0, probe.DelegateWait, e.key, int64(e.key), 0)
				}
			}
			return nil
		}
		nq.mu.Unlock()
		runtime.Gosched()
	}
}

func (l *HQDLock) runHelper(t *core.Thread, nq *nodeQueue, own func(h *core.Thread)) {
	// The node becomes the active node: acquire the global lock and
	// self-invalidate once for the whole batch.
	t0 := t.P.Now()
	l.global.Lock(t)
	owned := t.P.Now()
	t.Coh.SIFence(t.P)
	heldAt := t.P.Now()
	l.c.Obs.Sync(t.P, t0, probe.LockAcquire, l.global.key, probe.LockHQDL, owned-t0)

	own(t)
	sections := 1
	count := 0
	for {
		// Yield before each queue inspection so same-node delegators can
		// enqueue while the helper is "busy" (few-CPU interleaving).
		runtime.Gosched()
		nq.mu.Lock()
		if len(nq.queue) == 0 || count >= l.BatchLimit {
			rest := nq.queue
			nq.queue = nil
			nq.qOpen = false
			nq.mu.Unlock()
			for _, e := range rest {
				l.execute(t, e)
			}
			sections += len(rest)
			break
		}
		e := nq.queue[0]
		nq.queue = nq.queue[1:]
		nq.mu.Unlock()
		l.execute(t, e)
		sections++
		count++
	}

	// One self-downgrade publishes the whole batch, then the global lock
	// moves on. The batch size — own plus delegated sections under one global
	// acquisition — is the lever that amortizes the two fences.
	t.Coh.SDFence(t.P)
	l.c.Obs.Sync(t.P, heldAt, probe.LockRelease, l.global.key, 0, 0)
	l.c.Obs.Sync(t.P, t.P.Now(), probe.HQDLBatch, l.global.key, int64(sections), 0)
	l.global.Unlock(t)

	nq.mu.Lock()
	nq.held = false
	nq.h.released(t.P)
	nq.mu.Unlock()
}

func (l *HQDLock) execute(t *core.Thread, e hqEntry) {
	t.P.Advance(l.DequeueCost)
	t.P.AdvanceTo(e.enqAt)
	l.c.Obs.Sync(t.P, t.P.Now(), probe.DelegateRun, e.key, 0, 0)
	e.section(t)
	l.c.Fab.NodeStats(t.Node).DelegatedSections.Add(1)
	l.c.Obs.Sync(t.P, t.P.Now(), probe.DelegateDone, e.key, 0, int64(l.global.key))
	if e.done != nil {
		e.done <- t.P.Now()
	}
}
