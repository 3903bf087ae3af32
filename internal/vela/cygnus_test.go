package vela

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/sim"
	"argo/internal/trace"
)

// crashCluster builds a cluster under a fault-free plan; the tests script
// its crashes on the detector.
func crashCluster(nodes int) *core.Cluster { return crashClusterMX(nodes, nil) }

// crashClusterMX is crashCluster reporting into the metrics suite ms.
func crashClusterMX(nodes int, ms *metrics.Suite) *core.Cluster {
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	plan := fault.Plan{Seed: 1}
	cfg.Faults = &plan
	if ms != nil {
		cfg.Observers = append(cfg.Observers, ms)
	}
	c := core.MustNewCluster(cfg)
	c.BarrierFactory = DefaultBarrier
	return c
}

func TestCrashStopSurvivorsReconfigure(t *testing.T) {
	const nodes, tpn, episodes = 4, 2, 6
	ms := metrics.NewSuite()
	c := crashClusterMX(nodes, ms)
	// Node 0 dies at episode 3: this also exercises leader failover (the
	// decay/reset duties move to the lowest surviving member).
	c.Health.ScheduleCrash(0, 3, false)

	var survived atomic.Int64
	var preCrash, postCrash [nodes * tpn]sim.Time
	c.Run(tpn, func(th *core.Thread) {
		for e := 1; e <= episodes; e++ {
			if e == 3 {
				preCrash[th.Rank] = th.P.Now()
			}
			th.Barrier()
			if e == 3 {
				postCrash[th.Rank] = th.P.Now()
			}
		}
		survived.Add(1)
	})

	if got := survived.Load(); got != (nodes-1)*tpn {
		t.Fatalf("%d threads finished, want %d survivors", got, (nodes-1)*tpn)
	}
	if c.Health.Alive(0) {
		t.Fatal("node 0 still alive after crash-stop")
	}
	if got := c.Health.LiveCount(); got != nodes-1 {
		t.Fatalf("live count %d, want %d", got, nodes-1)
	}
	if got := c.Health.Epoch(); got != 1 {
		t.Fatalf("membership epoch %d, want 1 (one excision)", got)
	}
	h := c.Health.HistoryString()
	if !strings.Contains(h, "crash(n0)") || !strings.Contains(h, "excise(n0)") {
		t.Fatalf("history missing crash/excise of node 0: %q", h)
	}
	// Survivors reconfigure within one detection timeout: the crash
	// episode's barrier may cost at most the fault-free barrier plus the
	// detector timeout (plus the heartbeat publish, well under the slack).
	var worst sim.Time
	for r, post := range postCrash {
		if post == 0 {
			continue // dead thread
		}
		if d := post - preCrash[r]; d > worst {
			worst = d
		}
	}
	b := newHierBarrier(c, tpn)
	budget := 2*b.localCost + b.mem.cost + fault.Timeout + 20_000
	if worst > budget {
		t.Fatalf("crash episode took %d ns, budget %d ns (timeout %d)", worst, budget, fault.Timeout)
	}
	// Post-crash episodes still complete and align survivor clocks.
	var clocks []sim.Time
	for r, post := range postCrash {
		if post != 0 {
			clocks = append(clocks, post)
			_ = r
		}
	}
	for _, cl := range clocks {
		if cl != clocks[0] {
			t.Fatalf("survivor clocks diverge after crash episode: %v", clocks)
		}
	}
	for _, ev := range []string{"crash", "excise"} {
		got := eventCount(ms, "argo_crash_events_total", ev)
		if got != 1 {
			t.Fatalf("argo_crash_events_total{event=%s} = %d, want 1", ev, got)
		}
	}
}

func TestCrashRestartRejoins(t *testing.T) {
	const nodes, tpn, episodes = 3, 2, 5
	c := crashCluster(nodes)
	c.Health.ScheduleCrash(1, 2, true)

	var finished atomic.Int64
	c.Run(tpn, func(th *core.Thread) {
		for e := 1; e <= episodes; e++ {
			th.Barrier()
		}
		finished.Add(1)
	})

	if got := finished.Load(); got != nodes*tpn {
		t.Fatalf("%d threads finished, want all %d (restart keeps threads)", got, nodes*tpn)
	}
	if !c.Health.Alive(1) || c.Health.LiveCount() != nodes {
		t.Fatalf("node 1 did not rejoin: alive=%v live=%d", c.Health.Alive(1), c.Health.LiveCount())
	}
	if got := c.Health.Epoch(); got != 2 {
		t.Fatalf("membership epoch %d, want 2 (excise + rejoin)", got)
	}
	h := c.Health.HistoryString()
	for _, want := range []string{"crash(n1)", "excise(n1)", "rejoin(n1)"} {
		if !strings.Contains(h, want) {
			t.Fatalf("history missing %q: %q", want, h)
		}
	}
}

func TestCrashFlagSignalFromDyingNode(t *testing.T) {
	// The signaler's node crash-restarts at the barrier *after* the signal:
	// waiters on other nodes must still observe it, and the run completes.
	const nodes = 3
	c := crashCluster(nodes)
	c.Health.ScheduleCrash(0, 1, true)
	f := NewFlag(c, 0)

	var got atomic.Int64
	c.Run(1, func(th *core.Thread) {
		if th.Node == 0 {
			th.Compute(1000)
			f.Signal(th)
		} else {
			f.Wait(th)
			got.Add(1)
		}
		th.Barrier() // node 0 crashes and restarts here
		th.Barrier()
	})
	if got.Load() != nodes-1 {
		t.Fatalf("%d waiters observed the flag, want %d", got.Load(), nodes-1)
	}
	if !c.Health.Alive(0) {
		t.Fatal("node 0 did not rejoin")
	}
}

func TestCrashScheduleDeterminism(t *testing.T) {
	run := func() (sim.Time, string) {
		cfg := core.DefaultConfig(5)
		cfg.MemoryBytes = 4 << 20
		plan := fault.Plan{Seed: 123}
		plan.Crash = 0.08
		plan.CrashRestart = true
		cfg.Faults = &plan
		c := core.MustNewCluster(cfg)
		c.BarrierFactory = DefaultBarrier
		ms := c.Run(2, func(th *core.Thread) {
			for e := 0; e < 8; e++ {
				th.Compute(int64(100 * (th.Rank + 1)))
				th.Barrier()
			}
		})
		return ms, c.Health.HistoryString()
	}
	ms1, h1 := run()
	ms2, h2 := run()
	if h1 == "" {
		t.Fatal("crash plan produced no membership transitions (rate too low for the test)")
	}
	if h1 != h2 {
		t.Fatalf("membership history not deterministic:\n  run1 %q\n  run2 %q", h1, h2)
	}
	if ms1 != ms2 {
		t.Fatalf("makespan not deterministic: %d vs %d", ms1, ms2)
	}
}

// kindCounter is a probe sink that counts the events of each kind.
type kindCounter struct{ n [256]atomic.Int64 }

func (k *kindCounter) Observe(e probe.Event) { k.n[e.Kind].Add(1) }

// A cluster whose plan can neither crash nor cut anything off publishes no
// heartbeat, and its global leg releases every representative at the latest
// arrival plus the exit cost, as a fixed-count barrier would.
func TestFaultFreeBarrierUnchangedWhenUnarmed(t *testing.T) {
	heartbeats := func(arm func(c *core.Cluster)) int64 {
		var k kindCounter
		cfg := core.DefaultConfig(2)
		cfg.MemoryBytes = 4 << 20
		plan := fault.Plan{Seed: 1}
		cfg.Faults = &plan
		cfg.Observers = []probe.Sink{&k}
		c := core.MustNewCluster(cfg)
		c.BarrierFactory = DefaultBarrier
		arm(c)
		c.Run(2, func(th *core.Thread) {
			for e := 0; e < 3; e++ {
				th.Barrier()
			}
		})
		return k.n[probe.Heartbeat].Load()
	}
	if n := heartbeats(func(*core.Cluster) {}); n != 0 {
		t.Fatalf("unarmed run published %d heartbeats, want 0", n)
	}
	if n := heartbeats(func(c *core.Cluster) { c.Health.ScheduleCrash(0, 99, true) }); n != 2*3 {
		t.Fatalf("armed run published %d heartbeats, want one per representative and episode (6)", n)
	}

	c := crashCluster(2)
	b := newHierBarrier(c, 1)
	if want := 2 * c.Fab.P.RemoteLatency; b.mem.cost != want {
		t.Fatalf("global exit cost %d, want one round trip (%d) for two nodes", b.mem.cost, want)
	}
	procs := []*sim.Proc{{Node: 0}, {Node: 1}}
	procs[0].Advance(100)
	procs[1].Advance(700)
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *sim.Proc) {
			defer wg.Done()
			b.mem.rendezvous(p, 1, 0, false)
		}(p)
	}
	wg.Wait()
	for i, p := range procs {
		if want := 700 + b.mem.cost; p.Now() != want {
			t.Fatalf("representative %d released at %d, want max arrival + exit cost = %d", i, p.Now(), want)
		}
	}
}

// The global leg OR-combines the representatives' reset votes in an unarmed
// run too, and a vote does not leak into the next episode.
func TestMemberBarrierOrCombinesUnarmed(t *testing.T) {
	c := cluster(2)
	b := newHierBarrier(c, 1)
	vote := func(ep int64, votes ...bool) []bool {
		out := make([]bool, len(votes))
		var wg sync.WaitGroup
		for i, v := range votes {
			wg.Add(1)
			go func(i int, v bool) {
				defer wg.Done()
				out[i] = b.mem.rendezvous(&sim.Proc{Node: i}, ep, 0, v)
			}(i, v)
		}
		wg.Wait()
		return out
	}
	if got := vote(1, true, false); !got[0] || !got[1] {
		t.Fatalf("episode 1 delivered %v, want the OR of the votes to both", got)
	}
	if got := vote(2, false, false); got[0] || got[1] {
		t.Fatalf("episode 2 delivered %v: the OR leaked from episode 1", got)
	}
}

// A long fault-free run holds a few episode records, not two per episode.
func TestMemberBarrierFreesEpisodeRecords(t *testing.T) {
	const episodes = 10_000
	c := cluster(2)
	var bar *hierBarrier
	c.BarrierFactory = func(c *core.Cluster, tpn int) core.BarrierWaiter {
		bar = newHierBarrier(c, tpn)
		return bar
	}
	c.Run(1, func(th *core.Thread) {
		for e := 0; e < episodes; e++ {
			th.Barrier()
		}
	})
	if bar.Episodes() != episodes {
		t.Fatalf("%d episodes, want %d", bar.Episodes(), episodes)
	}
	if n := len(bar.mem.eps); n > 2 {
		t.Fatalf("%d episode records left after %d episodes, want at most 2", n, episodes)
	}
}

// TestPartitionSuspectHealCycle: a scripted partition isolates node 2 for
// episodes 2-3 of a barrier loop. The minority parks at its diverted
// barriers, the majority waits out the detection timeout and carries on,
// and the cut heals without excision: every thread finishes, the live count
// never moves, and the epoch bumps exactly once (the heal).
func TestPartitionSuspectHealCycle(t *testing.T) {
	const nodes, tpn, episodes = 3, 2, 6
	ms := metrics.NewSuite()
	c := crashClusterMX(nodes, ms)
	c.Health.SchedulePartition([]int{2}, 2, 2)

	var finished atomic.Int64
	var clocks [nodes * tpn]sim.Time
	c.Run(tpn, func(th *core.Thread) {
		for e := 1; e <= episodes; e++ {
			th.Compute(int64(100 * (th.Rank + 1)))
			th.Barrier()
		}
		clocks[th.Rank] = th.P.Now()
		finished.Add(1)
	})

	if got := finished.Load(); got != nodes*tpn {
		t.Fatalf("%d threads finished, want all %d (partition kills nobody)", got, nodes*tpn)
	}
	if !c.Health.Alive(2) || c.Health.LiveCount() != nodes {
		t.Fatalf("partition changed liveness: alive=%v live=%d",
			c.Health.Alive(2), c.Health.LiveCount())
	}
	if got := c.Health.Epoch(); got != 1 {
		t.Fatalf("membership epoch %d, want 1 (one heal, no excision)", got)
	}
	h := c.Health.HistoryString()
	for _, want := range []string{"suspect(n2)", "heal(n2)"} {
		if !strings.Contains(h, want) {
			t.Fatalf("history missing %q: %q", want, h)
		}
	}
	if strings.Contains(h, "excise") {
		t.Fatalf("partition excised a live node: %q", h)
	}
	// The healed minority resynchronizes: every thread's final clock agrees.
	for _, cl := range clocks {
		if cl != clocks[0] {
			t.Fatalf("final clocks diverge after heal: %v", clocks)
		}
	}
	// The fabric cut is torn down with the heal.
	if c.Fab.Severed(0, 2) || c.Fab.Severed(2, 0) {
		t.Fatal("fabric cut still standing after heal")
	}
	for _, ev := range []string{"suspect", "heal"} {
		got := eventCount(ms, "argo_partition_events_total", ev)
		if got != 1 {
			t.Fatalf("argo_crash_events_total{event=%s} = %d, want 1", ev, got)
		}
	}
}

// TestPartitionFromEpisodeOne: a partition already active at episode 1 has
// no prior episode completion to install its cut, so the barrier bootstraps
// it at construction. The run must still complete and heal.
func TestPartitionFromEpisodeOne(t *testing.T) {
	const nodes, tpn, episodes = 3, 1, 4
	c := crashCluster(nodes)
	c.Health.SchedulePartition([]int{1}, 1, 1)

	var finished atomic.Int64
	c.Run(tpn, func(th *core.Thread) {
		for e := 1; e <= episodes; e++ {
			th.Barrier()
		}
		finished.Add(1)
	})
	if got := finished.Load(); got != nodes*tpn {
		t.Fatalf("%d threads finished, want all %d", got, nodes*tpn)
	}
	h := c.Health.HistoryString()
	if !strings.Contains(h, "suspect(n1)") || !strings.Contains(h, "heal(n1)") {
		t.Fatalf("episode-1 partition left no suspect/heal cycle: %q", h)
	}
}

// TestPartitionScheduleDeterminism: under a hash-drawn partition plan, two
// identical runs produce identical membership histories and makespans —
// the heal-vs-excise serialization at the member barrier keeps same-seed
// runs bit-exact.
func TestPartitionScheduleDeterminism(t *testing.T) {
	run := func() (sim.Time, string) {
		cfg := core.DefaultConfig(5)
		cfg.MemoryBytes = 4 << 20
		plan := fault.Plan{Seed: 321}
		plan.Partition = 0.25
		plan.PartitionDur = 2
		plan.PartitionCut = 2
		cfg.Faults = &plan
		c := core.MustNewCluster(cfg)
		c.BarrierFactory = DefaultBarrier
		ms := c.Run(2, func(th *core.Thread) {
			for e := 0; e < 8; e++ {
				th.Compute(int64(100 * (th.Rank + 1)))
				th.Barrier()
			}
		})
		return ms, c.Health.HistoryString()
	}
	ms1, h1 := run()
	ms2, h2 := run()
	if !strings.Contains(h1, "suspect") {
		t.Fatal("partition plan produced no suspects (rate too low for the test)")
	}
	if h1 != h2 {
		t.Fatalf("membership history not deterministic:\n  run1 %q\n  run2 %q", h1, h2)
	}
	if ms1 != ms2 {
		t.Fatalf("makespan not deterministic: %d vs %d", ms1, ms2)
	}
}

// TestCrashAtFlagSafePoint: with crashpoints=flag armed, a dying waiter
// unwinds at Wait entry — before parking — and the crash event is tagged
// with the flag safe point.
func TestCrashAtFlagSafePoint(t *testing.T) {
	const nodes = 3
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	plan := fault.Plan{Seed: 1}
	plan.CrashPoints = fault.SafeFlag
	cfg.Faults = &plan
	tr := trace.New(0)
	cfg.Observers = append(cfg.Observers, tr)
	c := core.MustNewCluster(cfg)
	c.BarrierFactory = DefaultBarrier
	c.Health.ScheduleCrash(2, 1, false)
	f := NewFlag(c, 0)

	var got atomic.Int64
	var doomedPastWait atomic.Bool
	c.Run(1, func(th *core.Thread) {
		switch th.Node {
		case 0:
			th.Compute(1000)
			f.Signal(th)
		case 2:
			f.Wait(th) // dies at the safe point before parking
			doomedPastWait.Store(true)
		default:
			f.Wait(th)
			got.Add(1)
		}
	})

	if doomedPastWait.Load() {
		t.Fatal("dying waiter survived its flag safe point")
	}
	if got.Load() != 1 {
		t.Fatalf("%d live waiters observed the flag, want 1", got.Load())
	}
	if c.Health.Alive(2) {
		t.Fatal("node 2 still alive after its safe-point crash")
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == probe.Crash {
			found = true
			if ev.Aux != probe.CrashAtFlag {
				t.Fatalf("crash at safe point %s, want flag", trace.CrashKindName(ev.Aux))
			}
		}
	}
	if !found {
		t.Fatal("no crash event recorded")
	}
}

// TestRestartRendezvousAtResetEpisode: a node dies-and-restarts at an
// episode whose survivors vote a classification reset. Before the restart
// rendezvous this was the race that made the LU planner reject restart
// plans: the rejoiner's release at the sub=0 completion ran concurrently
// with the leader's directory wipe. The rendezvous defers admission past
// the post-reset (sub=1) rendezvous, so the run must complete with the
// rejoiner back in the membership and the whole schedule deterministic.
func TestRestartRendezvousAtResetEpisode(t *testing.T) {
	const nodes, tpn, episodes = 3, 2, 5
	run := func() (sim.Time, string) {
		c := crashCluster(nodes)
		c.Health.ScheduleCrash(1, 2, true)
		ms := c.Run(tpn, func(th *core.Thread) {
			for e := 1; e <= episodes; e++ {
				th.Compute(int64(100 * (th.Rank + 1)))
				if e == 2 {
					th.InitDone() // reset episode: the crash strikes here
				} else {
					th.Barrier()
				}
			}
		})
		if !c.Health.Alive(1) || c.Health.LiveCount() != nodes {
			t.Fatalf("node 1 did not rejoin through the reset: alive=%v live=%d",
				c.Health.Alive(1), c.Health.LiveCount())
		}
		return ms, c.Health.HistoryString()
	}
	ms1, h1 := run()
	for _, want := range []string{"crash(n1)", "excise(n1)", "rejoin(n1)"} {
		if !strings.Contains(h1, want) {
			t.Fatalf("history missing %q: %q", want, h1)
		}
	}
	ms2, h2 := run()
	if h1 != h2 || ms1 != ms2 {
		t.Fatalf("restart-at-reset not deterministic:\n  run1 %d %q\n  run2 %d %q", ms1, h1, ms2, h2)
	}
}

// TestAllRestartAtResetEpisode: every node dies-and-restarts at the reset
// episode. Nobody arrives to vote, so no reset fires (orOut=false) and the
// rejoiners must not park waiting for a post-reset rendezvous that never
// happens — the completion release must also not predate the deaths, which
// is why observe folds observer clocks into the episode's maxT.
func TestAllRestartAtResetEpisode(t *testing.T) {
	const nodes, tpn, episodes = 3, 2, 4
	c := crashCluster(nodes)
	for n := 0; n < nodes; n++ {
		c.Health.ScheduleCrash(n, 2, true)
	}
	var finished atomic.Int64
	c.Run(tpn, func(th *core.Thread) {
		for e := 1; e <= episodes; e++ {
			th.Compute(int64(100 * (th.Rank + 1)))
			if e == 2 {
				th.InitDone()
			} else {
				th.Barrier()
			}
		}
		finished.Add(1)
	})
	if got := finished.Load(); got != nodes*tpn {
		t.Fatalf("%d threads finished, want all %d", got, nodes*tpn)
	}
	if c.Health.LiveCount() != nodes {
		t.Fatalf("live count %d after all-restart, want %d", c.Health.LiveCount(), nodes)
	}
	if got := c.Health.Epoch(); got != 2*nodes {
		t.Fatalf("membership epoch %d, want %d (excise+rejoin per node)", got, 2*nodes)
	}
}

// TestOneWayCutSuspectsOnlySource: a scripted one-way cut severs only the
// directed link 1→0 for episodes 2-3. The fabric must report exactly that
// direction severed, only the source (node 1) is suspected and healed — the
// target stays a full member, which is what structurally prevents the
// asymmetric-suspicion double-excise — and nobody is excised.
func TestOneWayCutSuspectsOnlySource(t *testing.T) {
	const nodes, tpn, episodes = 3, 2, 5
	c := crashCluster(nodes)
	c.Health.ScheduleOneWayCut(1, 0, 2, 2)

	var sev10, sev01, sev12 atomic.Bool
	var finished atomic.Int64
	c.Run(tpn, func(th *core.Thread) {
		for e := 1; e <= episodes; e++ {
			th.Compute(int64(100 * (th.Rank + 1)))
			th.Barrier()
			if th.Node == 2 && e == 2 {
				// Mid-window, from the majority: the cut is direction-aware.
				sev10.Store(c.Fab.Severed(1, 0))
				sev01.Store(c.Fab.Severed(0, 1))
				sev12.Store(c.Fab.Severed(1, 2))
			}
		}
		finished.Add(1)
	})

	if got := finished.Load(); got != nodes*tpn {
		t.Fatalf("%d threads finished, want all %d (a cut kills nobody)", got, nodes*tpn)
	}
	if !sev10.Load() {
		t.Fatal("directed link 1→0 not severed mid-window")
	}
	if sev01.Load() || sev12.Load() {
		t.Fatalf("one-way cut severed extra links: 0→1=%v 1→2=%v", sev01.Load(), sev12.Load())
	}
	if c.Fab.Severed(1, 0) {
		t.Fatal("cut still standing after heal")
	}
	h := c.Health.HistoryString()
	for _, want := range []string{"suspect(n1)", "heal(n1)"} {
		if !strings.Contains(h, want) {
			t.Fatalf("history missing %q: %q", want, h)
		}
	}
	for _, banned := range []string{"suspect(n0)", "suspect(n2)", "excise"} {
		if strings.Contains(h, banned) {
			t.Fatalf("one-way cut recorded %q (double-excise hazard): %q", banned, h)
		}
	}
	if got := c.Health.Epoch(); got != 1 {
		t.Fatalf("membership epoch %d, want 1 (one heal)", got)
	}
}

// TestOneWayCutScheduleDeterminism: a hash-drawn one-way cut plan replays
// bit-exactly, suspects only its source node, and never excises.
func TestOneWayCutScheduleDeterminism(t *testing.T) {
	run := func() (sim.Time, string) {
		cfg := core.DefaultConfig(5)
		cfg.MemoryBytes = 4 << 20
		plan := fault.Plan{Seed: 99}
		plan.Partition = 0.3
		plan.PartitionDur = 2
		plan.PartitionOneWay = true
		plan.PartitionFrom, plan.PartitionTo = 1, 3
		cfg.Faults = &plan
		c := core.MustNewCluster(cfg)
		c.BarrierFactory = DefaultBarrier
		ms := c.Run(2, func(th *core.Thread) {
			for e := 0; e < 8; e++ {
				th.Compute(int64(100 * (th.Rank + 1)))
				th.Barrier()
			}
		})
		return ms, c.Health.HistoryString()
	}
	ms1, h1 := run()
	ms2, h2 := run()
	if !strings.Contains(h1, "suspect(n1)") {
		t.Fatal("one-way plan produced no suspects (rate too low for the test)")
	}
	if strings.Contains(h1, "suspect(n3)") || strings.Contains(h1, "excise") {
		t.Fatalf("one-way plan suspected the target or excised: %q", h1)
	}
	if h1 != h2 || ms1 != ms2 {
		t.Fatalf("one-way cut schedule not deterministic:\n  run1 %d %q\n  run2 %d %q", ms1, h1, ms2, h2)
	}
}

// The planner's walk and the runtime's are one: a health.Walk stepped by hand
// holds, after every episode of a run with a crash-stop, a crash-restart, a
// symmetric cut and a one-way cut, exactly the members the live member
// barrier reports.
func TestWalkStepsBesideMemberBarrier(t *testing.T) {
	const nodes, tpn, episodes = 6, 2, 9
	c := crashCluster(nodes)
	c.Health.ScheduleCrash(4, 2, false)
	c.Health.ScheduleCrash(2, 4, true)
	c.Health.ScheduleCrash(5, 6, false) // inside node 1's cut: crash wins, and strikes
	c.Health.SchedulePartition([]int{1, 5}, 5, 2)
	c.Health.ScheduleOneWayCut(3, 0, 8, 1)

	// Node 0 lives through every episode unparked, so its thread is back from
	// barrier e before anything of episode e+1 can complete.
	var seen [episodes][]int
	c.Run(tpn, func(th *core.Thread) {
		for e := 0; e < episodes; e++ {
			th.Barrier()
			if th.Rank == 0 {
				seen[e] = th.Bar.(*hierBarrier).Members()
			}
		}
	})
	walk := c.Health.NewWalk()
	for e := range seen {
		walk.Step()
		if !slices.Equal(seen[e], walk.Members()) {
			t.Fatalf("after episode %d the barrier holds %v, the walk %v", e+1, seen[e], walk.Members())
		}
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(walk.Members(), want) {
		t.Fatalf("final members %v, want %v (restart keeps its slot, cuts remove nobody)", walk.Members(), want)
	}
}

// An episode at which every member crash-stops has no arrival to time its
// release; the excisions are then stamped from the deaths themselves, never
// before them.
func TestExciseNeverPredatesItsCrash(t *testing.T) {
	const nodes = 3
	c := crashCluster(nodes)
	for n := 0; n < nodes; n++ {
		c.Health.ScheduleCrash(n, 2, false)
	}
	c.Run(2, func(th *core.Thread) {
		th.Compute(int64(50_000 * (th.Rank + 1)))
		th.Barrier()
		th.Barrier()
		t.Errorf("thread %d outlived a total loss", th.Rank)
	})
	crashed := map[int]sim.Time{}
	for _, tr := range c.Health.History() {
		switch tr.Kind {
		case "crash":
			crashed[tr.Node] = tr.At
		case "excise":
			if at, ok := crashed[tr.Node]; !ok || tr.At < at {
				t.Fatalf("%v stamped before its crash (t%d, recorded %v): %s", tr, at, ok, c.Health.HistoryString())
			}
		}
	}
	if len(crashed) != nodes || c.Health.Epoch() != nodes {
		t.Fatalf("want %d crashes and excisions: %s", nodes, c.Health.HistoryString())
	}
}

// eventCount reads the series name{event=ev} from the suite's dump.
func eventCount(ms *metrics.Suite, name, ev string) int64 {
	for _, c := range ms.Dump().Counters {
		if c.Name == name && c.Labels["event"] == ev {
			return c.Value
		}
	}
	return 0
}
