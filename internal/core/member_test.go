package core

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"argo/internal/fault"
	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/sim"
)

// crashCluster builds a cluster under a plan of scripted crashes and cuts,
// spelled as spec keys ("crashat=0@3"; "" scripts nothing).
func crashCluster(nodes int, script string) *Cluster { return crashClusterMX(nodes, nil, script) }

// crashClusterMX is crashCluster reporting into the metrics suite ms.
func crashClusterMX(nodes int, ms *metrics.Suite, script string) *Cluster {
	cfg := testConfig(nodes)
	cfg.Faults = mustPlan(script + ",seed=1")
	if ms != nil {
		cfg.Observers = append(cfg.Observers, ms)
	}
	return MustNewCluster(cfg)
}

func TestCrashStopSurvivorsReconfigure(t *testing.T) {
	const nodes, tpn, episodes = 4, 2, 6
	ms := metrics.NewSuite()
	// Node 0 dies at episode 3: this also exercises leader failover (the
	// decay/reset duties move to the lowest surviving member).
	c := crashClusterMX(nodes, ms, "crashat=0@3")

	var survived atomic.Int64
	var preCrash, postCrash [nodes * tpn]sim.Time
	c.Run(tpn, func(th *Thread) {
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
	budget := 2*b.localCost + b.cost + fault.Timeout + 20_000
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

// kindCounter is a probe sink that counts the events of each kind.
type kindCounter struct{ n [256]atomic.Int64 }

func (k *kindCounter) Observe(e probe.Event) { k.n[e.Kind].Add(1) }

// A cluster whose plan can neither crash nor cut anything off publishes no
// heartbeat, and its global leg releases every representative at the latest
// arrival plus the exit cost, as a fixed-count barrier would.
func TestFaultFreeBarrierUnchangedWhenUnarmed(t *testing.T) {
	heartbeats := func(script string) int64 {
		var k kindCounter
		cfg := DefaultConfig(2)
		cfg.MemoryBytes = 4 << 20
		cfg.Faults = mustPlan(script + ",seed=1")
		cfg.Observers = []probe.Sink{&k}
		c := MustNewCluster(cfg)
		c.Run(2, func(th *Thread) {
			for e := 0; e < 3; e++ {
				th.Barrier()
			}
		})
		return k.n[probe.Heartbeat].Load()
	}
	if n := heartbeats(""); n != 0 {
		t.Fatalf("unarmed run published %d heartbeats, want 0", n)
	}
	if n := heartbeats("restartat=0@99"); n != 2*3 {
		t.Fatalf("armed run published %d heartbeats, want one per representative and episode (6)", n)
	}

	c := crashCluster(2, "")
	b := newHierBarrier(c, 1)
	if want := 2 * c.Fab.P.RemoteLatency; b.cost != want {
		t.Fatalf("global exit cost %d, want one round trip (%d) for two nodes", b.cost, want)
	}
	procs := []*sim.Proc{{Node: 0}, {Node: 1}}
	procs[0].Advance(100)
	procs[1].Advance(700)
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *sim.Proc) {
			defer wg.Done()
			b.rendezvous(p, 1, 0, false)
		}(p)
	}
	wg.Wait()
	for i, p := range procs {
		if want := 700 + b.cost; p.Now() != want {
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
				out[i] = b.rendezvous(&sim.Proc{Node: i}, ep, 0, v)
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
	c.Run(1, func(th *Thread) {
		if th.Rank == 0 {
			bar = th.bar
		}
		for e := 0; e < episodes; e++ {
			th.Barrier()
		}
	})
	if n := bar.episodes.Load(); n != episodes {
		t.Fatalf("%d episodes, want %d", n, episodes)
	}
	if n := len(bar.eps); n > 2 {
		t.Fatalf("%d episode records left after %d episodes, want at most 2", n, episodes)
	}
}

// The planner's walk and the runtime's are one: a health.Walk stepped by hand
// holds, after every episode of a run with a crash-stop, a crash-restart, a
// symmetric cut and a one-way cut, exactly the members the live member
// barrier reports.
func TestWalkStepsBesideMemberBarrier(t *testing.T) {
	const nodes, tpn, episodes = 6, 2, 9
	// Node 5's death at episode 6 lies inside its own cut: crash wins, and
	// strikes.
	c := crashCluster(nodes, "crashat=4@2+5@6,restartat=2@4,cutat=1.5@5:2+3>0@8:1")

	// Node 0 lives through every episode unparked, so its thread is back from
	// barrier e before anything of episode e+1 can complete.
	var seen [episodes][]int
	c.Run(tpn, func(th *Thread) {
		for e := 0; e < episodes; e++ {
			th.Barrier()
			if th.Rank == 0 {
				seen[e] = th.bar.Members()
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

// globalLeg is a probe sink that keeps the global rendezvous events of one
// episode: representatives' arrivals and departures.
type globalLeg struct {
	ep     uint64
	mu     sync.Mutex
	events []probe.Event
}

func (g *globalLeg) Observe(e probe.Event) {
	// Key: barrier instance, meeting point (0 = the global rendezvous), episode.
	if (e.Kind == probe.ArriveGlobal || e.Kind == probe.ArriveGlobal+1) && e.Key>>24&0xff == 0 && e.Key&0xffffff == g.ep {
		g.mu.Lock()
		g.events = append(g.events, e)
		g.mu.Unlock()
	}
}

// One episode completes with all four fates at once: nodes 0 and 4 live,
// node 1 stops, node 2 restarts and node 3 is parked by a one-episode cut.
// Its release is the latest non-stopping check-in — representatives,
// rejoiners and parked threads alike — plus the exit cost and one
// failure-detection timeout; a stopping thread's clock does not time it.
func TestEveryFateInOneEpisode(t *testing.T) {
	const nodes, tpn, ep = 5, 2, 2
	// Before episode 2 each node works a different while, the dying node
	// longest, so every kind of check-in could be the latest.
	work := [nodes]sim.Time{0: 3_000, 1: 900_000, 2: 50_000, 3: 40_000, 4: 7_000}
	type outcome struct {
		history string
		members []int
		entry   [nodes * tpn]sim.Time // clock at episode 2's entry
		exit    [nodes * tpn]sim.Time // clock leaving episode 2 (0: unwound)
		legs    []probe.Event
		cost    sim.Time
	}
	run := func() outcome {
		var o outcome
		leg := &globalLeg{ep: ep}
		cfg := testConfig(nodes)
		cfg.Faults = mustPlan("crashat=1@2,restartat=2@2,cutat=3@2:1,seed=1")
		cfg.Observers = []probe.Sink{leg}
		c := MustNewCluster(cfg)
		defer c.Close()
		var bar *hierBarrier
		c.Run(tpn, func(th *Thread) {
			if th.Rank == 0 {
				bar = th.bar
			}
			th.Barrier()
			th.Compute(work[th.Node] + sim.Time(th.Local)*100)
			o.entry[th.Rank] = th.P.Now()
			th.Barrier()
			o.exit[th.Rank] = th.P.Now()
			th.Barrier()
		})
		o.history = c.Health.DecisionHistoryString()
		o.members = bar.Members()
		o.cost = bar.cost
		o.legs = leg.events
		slices.SortFunc(o.legs, func(a, b probe.Event) int {
			x, y := a.Order(), b.Order()
			return slices.Compare(x[:], y[:])
		})
		return o
	}
	o := run()

	if want := []int{0, 2, 3, 4}; !slices.Equal(o.members, want) {
		t.Fatalf("members %v, want %v (the stopped node leaves, the rejoiner keeps its slot)", o.members, want)
	}
	if want := "ep0:suspect(n3)@e2 ep0:crash(n1)@e2 ep0:crash(n2)@e2 ep1:excise(n1)@e2 ep2:excise(n2)@e2 ep3:rejoin(n2)@e2 ep4:heal(n3)@e2"; o.history != want {
		t.Fatalf("decision history\n%q, want\n%q", o.history, want)
	}

	// The latest non-stopping check-in: representatives check in at their
	// global arrival, parked and restarting threads at the episode's entry.
	var latest sim.Time
	arrivals := 0
	for _, e := range o.legs {
		if e.Kind == probe.ArriveGlobal {
			latest = max(latest, sim.Time(e.T))
			arrivals++
		}
	}
	if arrivals != 2 {
		t.Fatalf("%d representatives arrived at episode %d's global rendezvous, want 2", arrivals, ep)
	}
	for _, n := range []int{2, 3} {
		for l := 0; l < tpn; l++ {
			latest = max(latest, o.entry[n*tpn+l])
		}
	}
	release := latest + o.cost + fault.Timeout
	if stopper := o.entry[1*tpn+1]; stopper <= release {
		t.Fatalf("the stopping node checks in at %d, before the release %d: the test does not show that its clock is left out", stopper, release)
	}
	for _, e := range o.legs {
		if e.Kind == probe.ArriveGlobal+1 && sim.Time(e.T) != release {
			t.Fatalf("representative of node %d left the global rendezvous at %d, want %d", e.Node, e.T, release)
		}
	}
	for l := 0; l < tpn; l++ {
		if got := o.exit[3*tpn+l]; got != release {
			t.Fatalf("parked thread %d left the episode at %d, want the release %d", l, got, release)
		}
		if got := o.exit[2*tpn+l]; got != release+fault.Timeout {
			t.Fatalf("rejoining thread %d left the episode at %d, want the release plus one timeout (%d)", l, got, release+fault.Timeout)
		}
		if got := o.exit[1*tpn+l]; got != 0 {
			t.Fatalf("stopping thread %d left the episode at %d, want it unwound", l, got)
		}
	}

	if again := run(); !reflect.DeepEqual(o, again) {
		t.Fatalf("two runs differ:\n%+v\n%+v", o, again)
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
