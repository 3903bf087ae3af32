package vela

import (
	"strings"
	"sync/atomic"
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/sim"
	"argo/internal/trace"
)

// crashCluster builds a cluster under a plan of scripted crashes and cuts,
// spelled as spec keys ("crashat=0@3"; "" scripts nothing).
func crashCluster(nodes int, script string) *core.Cluster { return crashClusterMX(nodes, nil, script) }

// crashClusterMX is crashCluster reporting into the metrics suite ms.
func crashClusterMX(nodes int, ms *metrics.Suite, script string) *core.Cluster {
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	cfg.Faults = mustPlan(script + ",seed=1")
	if ms != nil {
		cfg.Observers = append(cfg.Observers, ms)
	}
	return core.MustNewCluster(cfg)
}

func TestCrashRestartRejoins(t *testing.T) {
	const nodes, tpn, episodes = 3, 2, 5
	c := crashCluster(nodes, "restartat=1@2")

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
	c := crashCluster(nodes, "restartat=0@1")
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

// TestPartitionSuspectHealCycle: a scripted partition isolates node 2 for
// episodes 2-3 of a barrier loop. The minority parks at its diverted
// barriers, the majority waits out the detection timeout and carries on,
// and the cut heals without excision: every thread finishes, the live count
// never moves, and the epoch bumps exactly once (the heal).
func TestPartitionSuspectHealCycle(t *testing.T) {
	const nodes, tpn, episodes = 3, 2, 6
	ms := metrics.NewSuite()
	c := crashClusterMX(nodes, ms, "cutat=2@2:2")

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
	c := crashCluster(nodes, "cutat=1@1:1")

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
	cfg.Faults = mustPlan("crashpoints=flag,crashat=2@1,seed=1")
	tr := trace.New(0)
	cfg.Observers = append(cfg.Observers, tr)
	c := core.MustNewCluster(cfg)
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
		c := crashCluster(nodes, "restartat=1@2")
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
	c := crashCluster(nodes, "restartat=0@2+1@2+2@2")
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
	c := crashCluster(nodes, "cutat=1>0@2:2")

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

// An episode at which every member crash-stops has no arrival to time its
// release; the excisions are then stamped from the deaths themselves, never
// before them.
func TestExciseNeverPredatesItsCrash(t *testing.T) {
	const nodes = 3
	c := crashCluster(nodes, "crashat=0@2+1@2+2@2")
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

// mustPlan parses a fault-plan spec the test wrote out itself.
func mustPlan(spec string) *fault.Plan {
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		panic(err)
	}
	return &plan
}
