package drf

import (
	"math/rand"
	"testing"

	"argo/internal/fault"
)

func testPlan(seed int64) fault.Plan {
	p, err := fault.ParsePlan("drop=0.05,delay=0.05,jitter=2us,stall=5us,stallp=0.02,atomicfail=0.05,seed=1")
	if err != nil {
		panic(err)
	}
	p.Seed = seed
	return p
}

// Recovery soundness: random programs under injected faults produce answers
// bit-identical to fault-free and pass every coherence check.
func TestChaosRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20150615))
	n := 8
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		pr := Random(rng)
		pr.UseFlags = i%4 == 3
		if _, err := RunChaos(pr, testPlan(int64(i)+1)); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
}

// Deterministic replay: the ring workload replays bit-exactly — same
// injected schedule, same retry counts, same makespan — under the same
// fault seed, and still matches the fault-free answer.
func TestRingReplayDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 42, 31337} {
		rep, err := ReplayCheck(DefaultRing(4), testPlan(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed == 42 && rep.Stats.FaultsInjected == 0 {
			t.Fatalf("seed %d: plan injected nothing — ring too small to exercise recovery", seed)
		}
	}
}

// The ring rejects shapes it cannot make schedule-independent.
func TestRingRejectsBadShapes(t *testing.T) {
	if _, err := RunRing(RingParams{Nodes: 2, PerNode: 1024, Epochs: 2, PageSize: 1024}); err == nil {
		t.Fatal("2-node ring accepted (write and read blocks coincide)")
	}
	if _, err := RunRing(RingParams{Nodes: 4, PerNode: 100, Epochs: 2, PageSize: 1024}); err == nil {
		t.Fatal("non-page-multiple block accepted")
	}
}

// A fault-free ring run is itself bit-reproducible, makespan included —
// the baseline the replay guarantee builds on.
func TestRingFaultFreeReproducible(t *testing.T) {
	a, err := RunRing(DefaultRing(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRing(DefaultRing(4))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fault-free ring not reproducible: %+v vs %+v", a, b)
	}
}

// Lyra burst fences under a low drop rate: the home-grouped burst reissues
// dropped downgrades with the same per-page fault identity the serial flush
// loop used, so the answer stays bit-identical to fault-free and the run
// replays bit-exactly (same injected schedule, same makespan).
func TestChaosBurstFencesLowDrop(t *testing.T) {
	plan, err := fault.ParsePlan("drop=0.01,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayCheck(DefaultRing(4), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.FaultsInjected == 0 {
		t.Fatal("plan injected nothing — drop=0.01 did not exercise the burst retry path")
	}
	// And random programs (fences from many threads, locks, flags) stay
	// answer-exact under the same plan.
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 3; i++ {
		pr := Random(rng)
		if _, err := RunChaos(pr, plan); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
}
