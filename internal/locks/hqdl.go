package locks

import (
	"sync/atomic"

	"argo/internal/core"
	"argo/internal/probe"
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
	global *globalTicketLock
	nodes  []*delegQueue[*core.Thread]

	// seq numbers delegation entries for the causal edges observers draw
	// from an enqueue to its execution and back to the delegator's wait.
	// Per-entry keys are needed because concurrent delegators share one
	// queue; the counter is probe-only so it never shifts the fault
	// identities NextSyncKey hands out.
	seq atomic.Uint64
}

// NewHQDLock creates a hierarchical QD lock whose global lock word is homed
// at node 0.
func NewHQDLock(c *core.Cluster) *HQDLock {
	l := &HQDLock{c: c, global: newFencedTicket(c, 0, probe.LockHQDL)}
	for i := 0; i < c.Cfg.Nodes; i++ {
		l.nodes = append(l.nodes, &delegQueue[*core.Thread]{
			fab: c.Fab, obs: c.Obs, key: l.global.key, seq: &l.seq,
			ring: make([]delegEntry[*core.Thread], delegRing),
		})
	}
	return l
}

// Delegate submits section and detaches.
func (l *HQDLock) Delegate(t *core.Thread, section func(h *core.Thread)) {
	l.delegate(t, delegEntry[*core.Thread]{section: section}, false)
}

// DelegateArg is Delegate for a section that takes one argument word: the
// helper runs fn(h, arg). Built once, fn carries per-operation data without
// a closure allocated per call.
func (l *HQDLock) DelegateArg(t *core.Thread, fn func(h *core.Thread, arg int64), arg int64) {
	l.delegate(t, delegEntry[*core.Thread]{fn: fn, arg: arg}, false)
}

// DelegateWait submits section and blocks until it has executed. The wait
// needs no fence of its own: results are observed through the node's shared
// page cache, which the helper keeps coherent with its batch-level fences.
func (l *HQDLock) DelegateWait(t *core.Thread, section func(h *core.Thread)) {
	if e := l.delegate(t, delegEntry[*core.Thread]{section: section}, true); e.done != nil {
		l.nodes[t.Node].await(t.P, e)
	}
}

// DelegateAsync submits section and returns a wait function, letting the
// caller overlap the section's execution with independent work (detached
// delegation — the mode §6 earmarks for future application reworks). A nil
// return means the caller became the helper and the section already ran.
// As with DelegateWait, no extra fence is needed on the wait.
func (l *HQDLock) DelegateAsync(t *core.Thread, section func(h *core.Thread)) func(t *core.Thread) {
	e := l.delegate(t, delegEntry[*core.Thread]{section: section}, true)
	if e.done == nil {
		return nil
	}
	return func(t *core.Thread) { l.nodes[t.Node].await(t.P, e) }
}

func (l *HQDLock) delegate(t *core.Thread, e delegEntry[*core.Thread], wait bool) delegEntry[*core.Thread] {
	nq := l.nodes[t.Node]
	queued, helper := nq.delegate(t.P, e, wait)
	if !helper {
		return queued
	}
	// The node becomes the active node: acquire the global lock and
	// self-invalidate once for the whole batch.
	t0 := t.P.Now()
	l.global.Lock(t)
	owned := t.P.Now()
	t.Coh.SIFence(t.P)
	heldAt := t.P.Now()
	l.c.Obs.Sync(t.P, t0, probe.LockAcquire, l.global.key, probe.LockHQDL, owned-t0)

	sections := nq.serve(t, t.P, e)

	// One self-downgrade publishes the whole batch, then the global lock
	// moves on. The batch size — own plus delegated sections under one global
	// acquisition — is the lever that amortizes the two fences.
	t.Coh.SDFence(t.P)
	l.c.Obs.Sync(t.P, heldAt, probe.LockRelease, l.global.key, 0, 0)
	l.c.Obs.Sync(t.P, t.P.Now(), probe.HQDLBatch, l.global.key, int64(sections), 0)
	l.global.Unlock(t)
	nq.release(t.P)
	return queued
}
