// Package vela implements Argo's signal/wait flags. The rest of Vela lives
// elsewhere: the hierarchical barrier is part of every cluster (package
// core, Thread.Barrier), and the lock algorithms are package locks.
package vela

import (
	"sync"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/sim"
)

// Flag is a signal/wait synchronization flag homed at one node. Signal has
// release semantics (SD fence before the flag becomes visible); Wait has
// acquire semantics (SI fence after observing it). The flag word itself is a
// data race by construction, so it lives outside the paged address space and
// is accessed with one-sided operations, like the rest of Vela.
type Flag struct {
	c    *core.Cluster
	home int
	key  uint64 // fault identity of the flag word

	mu   sync.Mutex
	q    sim.WaitQueue
	set  bool
	when sim.Time
}

// NewFlag creates a flag whose word is homed at node home.
//
// Crash semantics (Cygnus): by default a crash takes effect only at barrier
// safe points, so a thread of a dying node that is parked in Wait still
// receives its signal (the signaler either survives or signals before its
// own crash point), finishes the episode tail, and unwinds at its next
// barrier entry. With crashpoints=flag armed (Cygnus II), Wait entry and
// Signal exit are additional safe points: a dying waiter unwinds before
// parking, and a dying signaler unwinds after its publish lands — never
// between, so arming flags cannot strand a waiter on a lost signal.
// Programs must not depend on a signal that only a node dying *before* the
// signal would send.
func NewFlag(c *core.Cluster, home int) *Flag {
	return &Flag{c: c, home: home, key: c.NextSyncKey()}
}

// Signal downgrades the caller's node and raises the flag. A lost flag
// publish would strand every waiter; the fabric reissues it until it is
// delivered (Corvus).
func (f *Flag) Signal(t *core.Thread) {
	t.Coh.SDFence(t.P)
	f.c.Fab.RemoteWrite(t.P, f.home, 8, f.key)
	f.mu.Lock()
	f.set = true
	if t.P.Now() > f.when {
		f.when = t.P.Now()
	}
	f.q.WakeAll(0)
	f.mu.Unlock()
	// Safe point AFTER the flag is raised and waiters woken: a dying
	// signaler's flag still lands, so arming flags never strands a waiter.
	t.CrashSafePoint(fault.SafeFlag)
}

// Wait blocks until the flag is raised, charges the polling round trip, and
// self-invalidates the caller's node.
func (f *Flag) Wait(t *core.Thread) {
	// Safe point BEFORE parking: a dying waiter unwinds here instead of
	// blocking an episode it will never finish.
	t.CrashSafePoint(fault.SafeFlag)
	f.mu.Lock()
	for !f.set {
		f.q.Park(&f.mu, 0)
	}
	when := f.when
	f.mu.Unlock()
	t.P.AdvanceTo(when)
	// One last poll observes the raised flag.
	f.c.Fab.RemoteRead(t.P, f.home, 8, f.key)
	t.Coh.SIFence(t.P)
}

// TryWait reports whether the flag is raised without blocking; when it is,
// it applies the same costs and acquire fence as Wait.
func (f *Flag) TryWait(t *core.Thread) bool {
	f.mu.Lock()
	set := f.set
	when := f.when
	f.mu.Unlock()
	f.c.Fab.RemoteRead(t.P, f.home, 8, f.key)
	if !set {
		return false
	}
	t.P.AdvanceTo(when)
	t.Coh.SIFence(t.P)
	return true
}

// Reset lowers the flag (only when no Wait is pending).
func (f *Flag) Reset() {
	f.mu.Lock()
	f.set = false
	f.mu.Unlock()
}
