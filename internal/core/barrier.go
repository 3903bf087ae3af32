package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"argo/internal/health"
	"argo/internal/probe"
	"argo/internal/sim"
)

// hierBarrier is the Vela hierarchical barrier (§4.1 of the paper), one per
// launch: threads of a node first meet at a node-local barrier; one
// representative per node performs the node's self-downgrade (the page cache
// is shared, so one SD covers all local threads), the representatives meet at
// the member rendezvous of member.go — the one global rendezvous, which also
// survives crashes and partitions — self-invalidate, and finally release
// their local threads through a second node-local barrier. It also doubles as
// the cluster's phase-reset collective (classification reset after program
// initialization, and the decay-style adaptive reclassification extension).
type hierBarrier struct {
	c *Cluster

	local []*sim.Barrier // first rendezvous, per node
	final []*sim.Barrier // release rendezvous, per node

	localCost sim.Time
	cost      sim.Time // global rendezvous exit cost
	tpn       int
	armed     bool // crashes or partitions can occur: representatives publish heartbeats

	// inst is this barrier's instance in the key space of its rendezvous
	// events (probe-only; does not consume sync keys, so fault identities are
	// unchanged by observing).
	inst uint64

	episodes atomic.Int64 // completed episodes
	resets   atomic.Int64 // classification resets performed

	// The member rendezvous (member.go). Its episode records live from an
	// episode's first arrival to the completion of the next episode (see
	// maybeComplete), so a run of any length holds a few of them.
	mu      sync.Mutex
	q       sim.WaitQueue // threads parked until their episode completes
	walk    *health.Walk  // membership view; stands past the highest fully-completed sub=0 episode
	eps     map[epKey]*epState
	crashed map[crashKey]crashCheckIns
}

// newHierBarrier builds the barrier for a launch of threadsPerNode threads on
// every node of c.
func newHierBarrier(c *Cluster, threadsPerNode int) *hierBarrier {
	p := c.Fab.P
	b := &hierBarrier{
		c:         c,
		localCost: p.SocketLatency * sim.Time(1+log2ceil(threadsPerNode)),
		cost:      2 * p.RemoteLatency * sim.Time(log2ceil(c.Cfg.Nodes)),
		tpn:       threadsPerNode,
		armed:     c.Health.Armed(),
		inst:      c.spanKeys.Add(1),
		walk:      c.Health.NewWalk(),
		eps:       map[epKey]*epState{},
		crashed:   map[crashKey]crashCheckIns{},
	}
	for n := 0; n < c.Cfg.Nodes; n++ {
		b.local = append(b.local, sim.NewBarrier(threadsPerNode))
		b.final = append(b.final, sim.NewBarrier(threadsPerNode))
	}
	// Bootstrap: if a partition already covers episode 1 there is no prior
	// episode completion to install it, so the cut goes up at launch
	// (RunSeeded builds the barrier single-threaded, before any thread
	// starts, and ResetVirtualState has just cleared the previous cut).
	if cut := c.Health.CutAt(1); len(cut.Iso) > 0 {
		c.Fab.SetCut(cut)
		for _, n := range cut.Iso {
			c.Health.Suspect(n, 0, 1)
		}
	}
	return b
}

// meet runs one rendezvous leg and returns the wait duration. The leg is
// reported as an arrival (arrive is one of probe.ArriveLocal, ArriveGlobal,
// ArriveFinal) and the departure that follows it in the kind order, both
// keyed by the rendezvous identity: the barrier instance, the meeting point
// (node-local barriers use node+1, the global rendezvous 0, the reset
// re-rendezvous 255) and the episode. Every participant arrives and departs,
// so a departure joins to the last arrival — the causal source of the wake.
func (b *hierBarrier) meet(t *Thread, arrive probe.Kind, point int, ep uint64, wait func()) sim.Time {
	key := b.inst<<32 | uint64(point)<<24 | ep&0xffffff
	a0 := t.P.Now()
	b.c.Obs.Sync(t.P, a0, arrive, key, 0, 0)
	wait()
	b.c.Obs.Sync(t.P, a0, arrive+1, key, int64(ep), 0)
	return t.P.Now() - a0
}

// wait performs one barrier episode with full fence semantics (SD before the
// global rendezvous, SI after). With forceReset the episode also resets the
// data classification cluster-wide (Thread.InitDone).
func (b *hierBarrier) wait(t *Thread, forceReset bool) {
	// The episode counter keys the barrier's rendezvous events and the
	// member rendezvous' episodes, and names the crash safe point.
	t.SyncEpoch++
	// Cygnus: barrier entry is the crash safe point. Every thread of a
	// crashing node is diverted here — restart observers return without
	// running the episode, crash-stop threads unwind via CrashSignal.
	if b.crashPoint(t, t.SyncEpoch) {
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
		b.heartbeat(t, t.SyncEpoch)
		leader := b.leaderAt(t.SyncEpoch) == t.Node
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
				panic("core: paranoia check failed after SD: " + err.Error())
			}
		}
		var reset bool
		waited += b.meet(t, probe.ArriveGlobal, 0, ep, func() {
			reset = b.rendezvous(t.P, t.SyncEpoch, 0, want)
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
				b.rendezvous(t.P, t.SyncEpoch, 1, false)
			})
		} else {
			t.Coh.SIFence(t.P)
		}
		b.c.Obs.Since(t.P, r0, probe.BarrierRep, counted, wiped)
	}
	waited += b.meet(t, probe.ArriveFinal, n+1, ep, func() { b.final[n].Wait(t.P, b.localCost) })
	b.c.Obs.Since(t.P, t0, probe.BarrierEpisode, waited, 0)
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
