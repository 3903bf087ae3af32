package drf

import (
	"reflect"
	"strings"
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/health"
	"argo/internal/span"
)

func crashPlan(seed int64, rate float64, restart bool) fault.Plan {
	p := fault.DefaultPlan(seed)
	p.Crash = rate
	p.CrashRestart = restart
	p.CrashMinEpoch = 1
	return p
}

// The full Cygnus guarantee on the crash-tolerant ring: survivors repair the
// dead nodes' shards to the bit-exact fault-free memory image, and two runs
// under the same plan agree on makespan, crash schedule, membership epoch and
// the complete transition history.
func TestCrashRingReplayCheck(t *testing.T) {
	pr := RingParams{Nodes: 6, PerNode: 512, Epochs: 5, PageSize: 1024}
	for _, restart := range []bool{false, true} {
		rep, err := ReplayCrashCheck(pr, crashPlan(42, 0.05, restart))
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
	p.CrashMinEpoch = 1
	rep, err := ReplayCrashCheck(RingParams{Nodes: 5, PerNode: 512, Epochs: 4, PageSize: 1024}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths == 0 {
		t.Fatal("combined plan injected no crashes")
	}
	if rep.Faults == (fault.Snapshot{}) {
		t.Fatal("combined plan injected no transient faults")
	}
}

// The host-side planner mirrors the runtime membership exactly: a detector
// with a scripted crash yields repair phases covering precisely the dead
// writer's blocks, and a crash-stop removes the node from later phases.
func TestPlanCrashRingMirrorsSchedule(t *testing.T) {
	const nodes, epochs = 4, 3
	det := health.New(nodes, fault.DefaultPlan(1), nil)
	// Node 2 crash-stops at the barrier after epoch 0's write phase (episode 1).
	det.ScheduleCrash(2, 1, false)

	phases, err := planCrashRing(det, nodes, epochs)
	if err != nil {
		t.Fatal(err)
	}
	// Block b is written by node b+1, so node 2 owned block 1; the first
	// repair phase must rewrite exactly that block, and the writer role
	// collapses onto block 1's verifier, node 3.
	if phases[0].kind != phaseWrite {
		t.Fatalf("phase 0 kind = %d, want write", phases[0].kind)
	}
	if phases[1].kind != phaseRepair {
		t.Fatalf("phase after the crash episode is kind %d, want repair", phases[1].kind)
	}
	if blocks := phases[1].assign[3]; len(blocks) != 1 || blocks[0] != 1 {
		t.Fatalf("repair assignment %v, want block 1 repaired by node 3", phases[1].assign)
	}
	for n, blocks := range phases[1].assign {
		if n != 3 && len(blocks) > 0 {
			t.Fatalf("unexpected repair work for node %d: %v", n, blocks)
		}
	}
	// Node 2 never appears in any later phase.
	for i, ph := range phases[1:] {
		if blocks, ok := ph.assign[2]; ok && len(blocks) > 0 {
			t.Fatalf("phase %d still assigns dead node 2 blocks %v", i+1, blocks)
		}
	}
}

// An all-nodes crash schedule is rejected at planning time, not by a hang.
func TestPlanCrashRingRejectsTotalLoss(t *testing.T) {
	const nodes = 3
	det := health.New(nodes, fault.DefaultPlan(1), nil)
	for n := 0; n < nodes; n++ {
		det.ScheduleCrash(n, 1, false)
	}
	if _, err := planCrashRing(det, nodes, 2); err == nil {
		t.Fatal("planner accepted a schedule that kills every node")
	}
}

// Partition windows on the ring: the planner idles every covered episode,
// the minority heals without excision, and the memory image still matches
// fault-free bit for bit — with the full timestamped history identical
// across same-seed runs (ring NICs are single-client, so unlike LU even
// virtual times replay exactly).
func TestCrashRingReplayPartitions(t *testing.T) {
	p := fault.DefaultPlan(9)
	p.Partition = 0.2
	p.PartitionDur = 2
	rep, err := ReplayCrashCheck(RingParams{Nodes: 5, PerNode: 512, Epochs: 5, PageSize: 1024}, p)
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
	p := fault.DefaultPlan(9)
	p.Partition = 0.2
	p.PartitionDur = 2
	p.PartitionOneWay = true
	p.PartitionFrom, p.PartitionTo = 2, 4
	rep, err := ReplayCrashCheck(RingParams{Nodes: 5, PerNode: 512, Epochs: 5, PageSize: 1024}, p)
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

// Crash-restarts and partitions under one ring plan: the restart rendezvous
// and the idle walk compose, and the full CrashReport — timestamps included
// — replays bit-exactly.
func TestCrashRingReplayRestartPartitionMixed(t *testing.T) {
	p := crashPlan(17, 0.05, true)
	p.Partition = 0.12
	p.PartitionDur = 1
	rep, err := ReplayCrashCheck(RingParams{Nodes: 6, PerNode: 512, Epochs: 5, PageSize: 1024}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths == 0 && rep.Suspects == 0 {
		t.Fatal("mixed plan injected neither restarts nor partitions")
	}
}

// The planner's partition walk mirrors the runtime rule exactly: every
// phase whose ending barrier episode lies inside a partition window is an
// idle phase with no assignment, and work resumes at the first whole
// episode after the heal.
func TestPlanCrashRingIdlesThroughPartitions(t *testing.T) {
	const nodes, epochs = 4, 3
	det := health.New(nodes, fault.DefaultPlan(1), nil)
	det.SchedulePartition([]int{3}, 2, 2) // covers episodes 2 and 3
	det.ScheduleOneWayCut(1, 0, 6, 1)     // covers episode 6

	phases, err := planCrashRing(det, nodes, epochs)
	if err != nil {
		t.Fatal(err)
	}
	idles := 0
	for i, ph := range phases {
		ep := int64(i + 1) // phase i ends at barrier episode i+1
		if parked := det.PartitionAt(ep); len(parked) > 0 {
			if ph.kind != phaseIdle {
				t.Fatalf("phase %d ends at partitioned episode %d but has kind %d", i, ep, ph.kind)
			}
			if len(ph.assign) != 0 {
				t.Fatalf("idle phase %d carries assignments: %v", i, ph.assign)
			}
			idles++
		} else if ph.kind == phaseIdle {
			t.Fatalf("phase %d idles outside any partition window", i)
		}
	}
	if idles != 3 {
		t.Fatalf("%d idle phases, want 3 (two symmetric + one one-way episode)", idles)
	}
}

// Pictor critical-path attribution over a chaotic ring run is itself a
// deterministic artifact: two same-seed runs under crashes, restarts and
// one-way cuts produce identical span-analysis reports — same makespan,
// same attribution vector, same step sequence.
func TestCrashRingCriticalPathDeterminism(t *testing.T) {
	run := func() *span.Report {
		sr := span.NewRecorder(0)
		core.ConfigHook = func(cfg *core.Config) { cfg.Observers = append(cfg.Observers, sr) }
		defer func() { core.ConfigHook = nil }()
		p := crashPlan(23, 0.06, true)
		p.Partition = 0.1
		p.PartitionDur = 1
		p.PartitionOneWay = true
		p.PartitionFrom, p.PartitionTo = 1, 3
		rep, err := RunRingCrash(RingParams{Nodes: 5, PerNode: 512, Epochs: 5, PageSize: 1024, Faults: &p})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Deaths == 0 {
			t.Fatal("plan injected no crashes — nothing recovery-attributed on the path")
		}
		out, err := span.Analyze(sr.Records(), sr.Makespan())
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
