// Package vela implements Argo's synchronization system (barriers and
// signal/wait flags; the lock algorithms live in package locks).
//
// The hierarchical barrier follows §4.1 of the paper: threads of a node
// first meet at a node-local barrier; one representative per node performs
// the node's self-downgrade (the page cache is shared, so one SD covers all
// local threads), the representatives meet at a global (MPI-like) barrier —
// the member barrier of cygnus.go, the one global rendezvous, which also
// survives crashes and partitions — self-invalidate, and finally release
// their local threads through a second node-local barrier.
package vela

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/probe"
	"argo/internal/sim"
)

// hierBarrier is the hierarchical DSM barrier. It also doubles as the
// cluster's phase-reset collective (classification reset after program
// initialization, and the decay-style adaptive reclassification extension).
type hierBarrier struct {
	c *core.Cluster

	local []*sim.Barrier // first rendezvous, per node
	final []*sim.Barrier // release rendezvous, per node
	mem   *memberBarrier // node representatives

	localCost sim.Time

	// inst is this barrier's instance in the key space of its rendezvous
	// events (probe-only; does not consume sync keys, so fault identities are
	// unchanged by observing).
	inst uint64

	episodes atomic.Int64
	resets   atomic.Int64
}

// DefaultBarrier is the default-barrier factory of every cluster
// (core.Cluster.BarrierFactory): one hierarchical barrier per launch.
func DefaultBarrier(c *core.Cluster, threadsPerNode int) core.BarrierWaiter {
	return newHierBarrier(c, threadsPerNode)
}

// newHierBarrier builds the default barrier for a launch of threadsPerNode
// threads on every node of c.
func newHierBarrier(c *core.Cluster, threadsPerNode int) *hierBarrier {
	b := &hierBarrier{c: c, inst: c.NextSpanKey()}
	for n := 0; n < c.Cfg.Nodes; n++ {
		b.local = append(b.local, sim.NewBarrier(threadsPerNode))
		b.final = append(b.final, sim.NewBarrier(threadsPerNode))
	}
	p := c.Fab.P
	b.localCost = p.SocketLatency * sim.Time(1+log2ceil(threadsPerNode))
	globalCost := 2 * p.RemoteLatency * sim.Time(log2ceil(c.Cfg.Nodes))
	b.mem = newMemberBarrier(c, threadsPerNode, globalCost)
	return b
}

var _ core.BarrierWaiter = (*hierBarrier)(nil)

// Wait performs one hierarchical barrier episode with full fence semantics
// (SD before the global rendezvous, SI after).
func (b *hierBarrier) Wait(t *core.Thread) { b.wait(t, false) }

// WaitAndReset performs a barrier episode that additionally resets the data
// classification cluster-wide: all page caches are flushed and dropped and
// the Pyxis full-maps cleared. The paper performs exactly this at the end of
// a program's initialization phase so init-time accesses do not pollute the
// classification.
func (b *hierBarrier) WaitAndReset(t *core.Thread) { b.wait(t, true) }

// meet runs one rendezvous leg and returns the wait duration. The leg is
// reported as an arrival (arrive is one of probe.ArriveLocal, ArriveGlobal,
// ArriveFinal) and the departure that follows it in the kind order, both
// keyed by the rendezvous identity: the barrier instance, the meeting point
// (node-local barriers use node+1, the global rendezvous 0, the reset
// re-rendezvous 255) and the episode. Every participant arrives and departs,
// so a departure joins to the last arrival — the causal source of the wake.
func (b *hierBarrier) meet(t *core.Thread, arrive probe.Kind, point int, ep uint64, wait func()) sim.Time {
	key := b.inst<<32 | uint64(point)<<24 | ep&0xffffff
	a0 := t.P.Now()
	b.c.Obs.Sync(t.P, a0, arrive, key, 0, 0)
	wait()
	b.c.Obs.Sync(t.P, a0, arrive+1, key, int64(ep), 0)
	return t.P.Now() - a0
}

func (b *hierBarrier) wait(t *core.Thread, forceReset bool) {
	// The episode counter keys the barrier's rendezvous events and the
	// member barrier's episodes, and names the crash safe point.
	t.SyncEpoch++
	// Cygnus: barrier entry is the crash safe point. Every thread of a
	// crashing node is diverted here — restart observers return without
	// running the episode, crash-stop threads unwind via CrashSignal.
	if b.mem.crashPoint(t, t.SyncEpoch) {
		return
	}
	n := t.Node
	ep := uint64(t.SyncEpoch)
	t0 := t.P.Now()
	waited := b.meet(t, probe.ArriveLocal, n+1, ep, func() { b.local[n].Wait(t.P, b.localCost) })
	if t.Local == 0 {
		// Node representative: downgrade, rendezvous, (maybe reset),
		// invalidate. The reset decision travels with the rendezvous so
		// all representatives of one episode agree on it.
		r0 := t.P.Now()
		b.mem.heartbeat(t, t.SyncEpoch)
		leader := b.mem.leaderAt(t.SyncEpoch) == t.Node
		t.Coh.SDFence(t.P)
		want := forceReset
		var counted, wiped int64 // the leader's: it counts the episode and wipes the directory
		if leader {
			counted = 1
			ep := b.episodes.Add(1)
			if d := b.c.Cfg.DecayEpochs; d > 0 && ep%int64(d) == 0 {
				want = true
			}
		}
		if b.c.Cfg.Paranoia {
			if err := t.Coh.CheckQuiesced(); err != nil {
				panic("vela: paranoia check failed after SD: " + err.Error())
			}
		}
		var reset bool
		waited += b.meet(t, probe.ArriveGlobal, 0, ep, func() {
			reset = b.mem.rendezvous(t.P, t.SyncEpoch, 0, want)
		})
		if reset {
			t.Coh.ResetForPhase()
			if leader {
				b.c.Dir.Reset()
				b.resets.Add(1)
				wiped = 1
			}
			// Second rendezvous: nobody may re-register pages while the
			// directory wipe is in progress on the leader.
			waited += b.meet(t, probe.ArriveGlobal, 255, ep, func() {
				b.mem.rendezvous(t.P, t.SyncEpoch, 1, false)
			})
		} else {
			t.Coh.SIFence(t.P)
		}
		b.c.Obs.Since(t.P, r0, probe.BarrierRep, counted, wiped)
	}
	waited += b.meet(t, probe.ArriveFinal, n+1, ep, func() { b.final[n].Wait(t.P, b.localCost) })
	b.c.Obs.Since(t.P, t0, probe.BarrierEpisode, waited, 0)
}

// Members returns the barrier's current membership view in ascending node
// order.
func (b *hierBarrier) Members() []int { return b.mem.Members() }

// Episodes returns the number of completed barrier episodes.
func (b *hierBarrier) Episodes() int64 { return b.episodes.Load() }

// Resets returns the number of classification resets performed.
func (b *hierBarrier) Resets() int64 { return b.resets.Load() }

var _ core.PhaseResetter = (*hierBarrier)(nil)

var _ core.SafePointer = (*hierBarrier)(nil)

// SafePoint delivers a pending crash verdict at a non-barrier safe point
// (core.SafePointer). Locks and flags call it through Thread.CrashSafePoint;
// it is a no-op unless the plan's crashpoints spec arms this kind of point
// and a crash verdict is pending. See memberBarrier.safePoint for the
// schedule-identity argument.
func (b *hierBarrier) SafePoint(t *core.Thread, pt fault.SafePoint) { b.mem.safePoint(t, pt) }

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

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
