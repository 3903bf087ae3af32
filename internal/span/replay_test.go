// Integration tests: Pictor's replay determinism over real workloads, and
// the Argoscope wait histograms that ride along with the span probes.
package span_test

import (
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/locks"
	"argo/internal/metrics"
	"argo/internal/span"
	"argo/internal/trace"
	"argo/internal/workloads/drf"
)

// ringReport runs the ring workload once with a fresh tracer attached and
// returns the critical-path report of its log and the run's death count.
func ringReport(t *testing.T, nodes int, plan *fault.Plan) (*span.Report, int) {
	t.Helper()
	tr := trace.New(0)
	core.ConfigHook = func(cfg *core.Config) { cfg.Observers = append(cfg.Observers, tr) }
	defer func() { core.ConfigHook = nil }()
	pr := drf.DefaultRing(nodes)
	pr.Faults = plan
	run, err := drf.RunRing(pr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := span.Analyze(span.Records(tr.Events()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchedEdges == 0 {
		t.Fatal("ring run produced no matched edges")
	}
	return rep, run.Deaths
}

func TestReplayDeterminismFaultFree(t *testing.T) {
	a, _ := ringReport(t, 4, nil)
	b, _ := ringReport(t, 4, nil)
	if a.Digest() != b.Digest() {
		t.Fatalf("fault-free critical paths diverged: %016x vs %016x", a.Digest(), b.Digest())
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans diverged: %d vs %d", a.Makespan, b.Makespan)
	}
	if a.Attribution[span.BarrierWait] == 0 {
		t.Fatal("ring with barriers attributed no barrier-wait time")
	}
}

func TestReplayDeterminismFaults(t *testing.T) {
	plan, err := fault.ParsePlan("drop=0.01,stall=5us,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ringReport(t, 4, &plan)
	b, _ := ringReport(t, 4, &plan)
	if a.Digest() != b.Digest() {
		t.Fatalf("faulty critical paths diverged: %016x vs %016x", a.Digest(), b.Digest())
	}
	free, _ := ringReport(t, 4, nil)
	if a.Digest() == free.Digest() {
		t.Fatal("fault injection left the critical path untouched (suspicious)")
	}
}

func TestReplayDeterminismCrash(t *testing.T) {
	plan := fault.Plan{Seed: 7}
	plan.Crash = 0.2
	plan.CrashRestart = true
	a, deathsA := ringReport(t, 6, &plan)
	b, deathsB := ringReport(t, 6, &plan)
	if deathsA != deathsB {
		t.Fatalf("crash schedules diverged: %d vs %d deaths", deathsA, deathsB)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("crash-run critical paths diverged: %016x vs %016x", a.Digest(), b.Digest())
	}
	if deathsA > 0 && a.Attribution[span.Recovery] == 0 {
		t.Fatalf("%d deaths but no recovery time attributed: %+v", deathsA, a.Attribution)
	}
}

func histCount(d metrics.DumpJSON, name string) int64 {
	var n int64
	for _, h := range d.Histograms {
		if h.Name == name {
			n += h.Count
		}
	}
	return n
}

func TestWaitHistogramsRecorded(t *testing.T) {
	cfg := core.DefaultConfig(3)
	cfg.MemoryBytes = 4 << 20
	ms := metrics.NewSuite()
	cfg.Observers = append(cfg.Observers, ms)
	c := core.MustNewCluster(cfg)
	slot := c.AllocI64(1)
	l := locks.NewDSMMutex(c, 0)
	c.Run(2, func(th *core.Thread) {
		for k := 0; k < 20; k++ {
			l.Lock(th)
			th.SetI64(slot, 0, th.GetI64(slot, 0)+1)
			th.P.Advance(20)
			l.Unlock(th)
		}
		th.Barrier()
	})
	d := ms.Dump()
	if n := histCount(d, "argo_lock_wait_ns"); n == 0 {
		t.Fatal("argo_lock_wait_ns recorded no samples")
	}
	if n := histCount(d, "argo_barrier_wait_ns"); n == 0 {
		t.Fatal("argo_barrier_wait_ns recorded no samples")
	}
}
