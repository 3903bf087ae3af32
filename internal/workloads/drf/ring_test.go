package drf

import (
	"reflect"
	"strings"
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/health"
	"argo/internal/recovery"
	"argo/internal/span"
	"argo/internal/trace"
)

func crashPlan(seed int64, rate float64, restart bool) fault.Plan {
	p := fault.Plan{Seed: seed}
	p.Crash = rate
	p.CrashRestart = restart
	return p
}

// The full Cygnus guarantee on the crash-tolerant ring: survivors repair the
// dead nodes' shards to the bit-exact fault-free memory image, and two runs
// under the same plan agree on makespan, crash schedule, membership epoch and
// the complete transition history.
func TestCrashRingReplayCheck(t *testing.T) {
	pr := RingParams{Nodes: 6, PerNode: 512, Epochs: 5, PageSize: 1024}
	for _, restart := range []bool{false, true} {
		rep, err := ReplayCheck(pr, crashPlan(42, 0.05, restart))
		if err != nil {
			t.Fatalf("restart=%v: %v", restart, err)
		}
		if rep.Deaths == 0 {
			t.Fatalf("restart=%v: plan injected no crashes — rate too low to exercise recovery", restart)
		}
		if rep.Epoch == 0 {
			t.Fatalf("restart=%v: membership epoch never advanced despite %d deaths", restart, rep.Deaths)
		}
	}
}

// Crash faults compose with the transient Corvus classes: drops and stalls
// under the same crash schedule still converge to the fault-free answer and
// replay bit-exactly.
func TestCrashRingWithTransientFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := testPlan(7)
	p.Crash = 0.04
	p.CrashRestart = false
	rep, err := ReplayCheck(RingParams{Nodes: 5, PerNode: 512, Epochs: 4, PageSize: 1024}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths == 0 {
		t.Fatal("combined plan injected no crashes")
	}
	if rep.Stats.FaultsInjected == 0 {
		t.Fatal("combined plan injected no transient faults")
	}
}

// The ring's table under the walk: a detector with a scripted crash yields a
// repair body covering precisely the dead writer's blocks, and a crash-stop
// removes the node from later bodies.
func TestPlanCrashRingMirrorsSchedule(t *testing.T) {
	const nodes, epochs = 4, 3
	// Node 2 crash-stops at the barrier after epoch 0's write phase (episode 1).
	det := health.New(nodes, fault.Plan{Seed: 1, Crashes: []fault.ScriptedCrash{{Node: 2, Episode: 1}}})

	script, err := recovery.Plan(det, ringTable(nodes, epochs))
	if err != nil {
		t.Fatal(err)
	}
	// Block b is written by node b+1, so node 2 owned block 1; the body after
	// the crash episode must rewrite exactly that block, and the writer role
	// collapses onto block 1's verifier, node 3.
	if script[0].Repair || len(script[0].Assign) != nodes || script[0].Assign[2][0].verify {
		t.Fatalf("body 0 = %+v, want the write phase", script[0])
	}
	if !script[1].Repair {
		t.Fatalf("body after the crash episode is %+v, want a repair", script[1])
	}
	want := map[int][]ringTask{3: {{epoch: 0, block: 1}}}
	if !reflect.DeepEqual(script[1].Assign, want) {
		t.Fatalf("repair assignment %v, want block 1 repaired by node 3", script[1].Assign)
	}
	// Node 2 never appears in any later body.
	for i, body := range script[1:] {
		if tasks := body.Assign[2]; len(tasks) > 0 {
			t.Fatalf("body %d still assigns dead node 2 tasks %v", i+1, tasks)
		}
	}
}

// An all-nodes crash schedule is rejected at planning time, not by a hang.
func TestPlanCrashRingRejectsTotalLoss(t *testing.T) {
	const nodes = 3
	plan := fault.Plan{Seed: 1}
	for n := 0; n < nodes; n++ {
		plan.Crashes = append(plan.Crashes, fault.ScriptedCrash{Node: n, Episode: 1})
	}
	det := health.New(nodes, plan)
	if _, err := recovery.Plan(det, ringTable(nodes, 2)); err == nil {
		t.Fatal("planner accepted a schedule that kills every node")
	}
}

// Partition windows on the ring: the planner idles every covered episode,
// the minority heals without excision, and the memory image still matches
// fault-free bit for bit — with the full timestamped history identical
// across same-seed runs (ring NICs are single-client, so unlike LU even
// virtual times replay exactly).
func TestCrashRingReplayPartitions(t *testing.T) {
	p := fault.Plan{Seed: 9}
	p.Partition = 0.2
	p.PartitionDur = 2
	rep, err := ReplayCheck(RingParams{Nodes: 5, PerNode: 512, Epochs: 5, PageSize: 1024}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suspects == 0 {
		t.Fatal("plan injected no partitions — rate too low to exercise the idle walk")
	}
	if rep.Deaths != 0 {
		t.Fatalf("partition-only plan recorded %d deaths", rep.Deaths)
	}
	if !strings.Contains(rep.History, "suspect") || !strings.Contains(rep.History, "heal") {
		t.Fatalf("history records no suspect/heal cycle: %q", rep.History)
	}
	if strings.Contains(rep.History, "excise") {
		t.Fatalf("partition excised a live node: %q", rep.History)
	}
}

// One-way cuts on the ring: only the source of the directed sever is parked
// and suspected; the target stays a full member throughout.
func TestCrashRingReplayOneWayCut(t *testing.T) {
	p := fault.Plan{Seed: 9}
	p.Partition = 0.2
	p.PartitionDur = 2
	p.PartitionOneWay = true
	p.PartitionFrom, p.PartitionTo = 2, 4
	rep, err := ReplayCheck(RingParams{Nodes: 5, PerNode: 512, Epochs: 5, PageSize: 1024}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suspects == 0 {
		t.Fatal("plan injected no one-way cuts — rate too low to exercise the asymmetric path")
	}
	if !strings.Contains(rep.History, "suspect(n2)") {
		t.Fatalf("source of the cut never suspected: %q", rep.History)
	}
	if strings.Contains(rep.History, "suspect(n4)") {
		t.Fatalf("one-way cut suspected its target (double-excise hazard): %q", rep.History)
	}
	if rep.Deaths != 0 || strings.Contains(rep.History, "excise") {
		t.Fatalf("one-way cut cost a membership: %+v", rep)
	}
}

// A scripted plan — a crash-stop, a crash-restart, a symmetric cut and a
// one-way cut, no rates — runs through the one door like a drawn one: its
// spec names the whole schedule, and the ring repairs and replays under it.
func TestCrashRingReplayScriptedPlan(t *testing.T) {
	p, err := fault.ParsePlan("crashat=2@3,restartat=4@5,cutat=1@7:2+3>0@10:1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayCheck(DefaultRing(6), p)
	if err != nil {
		t.Fatal(err)
	}
	want := "ep0:crash(n2)@e3 ep1:excise(n2)@e3 ep1:crash(n4)@e5 ep2:excise(n4)@e5 ep3:rejoin(n4)@e5 " +
		"ep3:suspect(n1)@e7 ep4:heal(n1)@e8 ep4:suspect(n3)@e10 ep5:heal(n3)@e10"
	if rep.Deaths != 2 || rep.Suspects != 2 || rep.Decisions != want {
		t.Fatalf("deaths %d suspects %d, decisions\n  %s\nwant\n  %s", rep.Deaths, rep.Suspects, rep.Decisions, want)
	}
}

// Crash-restarts and partitions under one ring plan: the restart rendezvous
// and the idle walk compose, and the full RingReport — timestamps included
// — replays bit-exactly.
func TestCrashRingReplayRestartPartitionMixed(t *testing.T) {
	p := crashPlan(17, 0.05, true)
	p.Partition = 0.12
	p.PartitionDur = 1
	rep, err := ReplayCheck(RingParams{Nodes: 6, PerNode: 512, Epochs: 5, PageSize: 1024}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths == 0 && rep.Suspects == 0 {
		t.Fatal("mixed plan injected neither restarts nor partitions")
	}
}

// Every body whose ending barrier episode lies inside a partition window is
// an idle body with no assignment, and work resumes at the first whole
// episode after the heal.
func TestPlanCrashRingIdlesThroughPartitions(t *testing.T) {
	const nodes, epochs = 4, 3
	det := health.New(nodes, fault.Plan{Seed: 1, Cuts: []fault.ScriptedCut{
		{Start: 2, Dur: 2, Nodes: []int{3}},                // covers episodes 2 and 3
		{Start: 6, Dur: 1, OneWay: true, From: 1, To: 0}}}) // covers episode 6
	window := map[int]bool{2: true, 3: true, 6: true}

	script, err := recovery.Plan(det, ringTable(nodes, epochs))
	if err != nil {
		t.Fatal(err)
	}
	if len(script) != 2*epochs+len(window) {
		t.Fatalf("%d bodies, want %d phases + %d idle", len(script), 2*epochs, len(window))
	}
	for i, body := range script {
		// Body i ends at barrier episode i+1.
		if idle := body.Assign == nil; idle != window[i+1] {
			t.Fatalf("body %d ends at episode %d (in a window: %v) with assignment %v", i, i+1, window[i+1], body.Assign)
		}
	}
}

// Pictor critical-path attribution over a chaotic ring run is itself a
// deterministic artifact: two same-seed runs under crashes, restarts and
// one-way cuts produce identical span-analysis reports — same makespan,
// same attribution vector, same step sequence.
func TestCrashRingCriticalPathDeterminism(t *testing.T) {
	run := func() *span.Report {
		tr := trace.New(0)
		core.ConfigHook = func(cfg *core.Config) { cfg.Observers = append(cfg.Observers, tr) }
		defer func() { core.ConfigHook = nil }()
		p := crashPlan(23, 0.06, true)
		p.Partition = 0.1
		p.PartitionDur = 1
		p.PartitionOneWay = true
		p.PartitionFrom, p.PartitionTo = 1, 3
		rep, err := RunRing(RingParams{Nodes: 5, PerNode: 512, Epochs: 5, PageSize: 1024, Faults: &p})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Deaths == 0 {
			t.Fatal("plan injected no crashes — nothing recovery-attributed on the path")
		}
		out, err := span.Analyze(span.Records(tr.Events()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	r1 := run()
	r2 := run()
	if r1.Makespan != r2.Makespan || r1.Attribution != r2.Attribution {
		t.Fatalf("critical-path attribution not deterministic:\n  run1 makespan=%d attr=%v\n  run2 makespan=%d attr=%v",
			r1.Makespan, r1.Attribution, r2.Makespan, r2.Attribution)
	}
	if !reflect.DeepEqual(r1.Steps, r2.Steps) {
		t.Fatalf("critical-path steps not deterministic:\n  run1 %v\n  run2 %v", r1.Steps, r2.Steps)
	}
	if r1.Attribution[span.Recovery] == 0 {
		t.Fatal("chaotic ring run attributed no Recovery time on the critical path")
	}
}
