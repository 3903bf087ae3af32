// Lynx regression tests: the per-thread access TLB is a host-side fast
// path only — it must not change a single virtual-time or protocol
// decision. These tests run the deterministic workloads twice, with the
// TLB enabled (default) and disabled (Config.NoAccessTLB), and require
// bit-identical reports; plus a zero-allocation guarantee on scalar hits.
// The tiny-cache variants repeat the A/B where the miss path does the work:
// a working set twice the cache, so buffers are refilled and rebound in
// place under the readers' TLB entries all run long.
package argo_test

import (
	"math"
	"sort"
	"strings"
	"testing"

	"argo"
	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/racetag"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/wload"
)

// luChaosSpec is the perf ledger's lu_chaos plan (benchmark/workloads.go).
const luChaosSpec = "crash=0.03,crashrestart=on,partition=0.05,partdur=2,drop=0.01,seed=42"

// withConfig runs fn with mutate applied to every cluster's Config,
// restoring the previous hook afterwards.
func withConfig(t *testing.T, mutate func(*core.Config), fn func()) {
	t.Helper()
	prev := core.ConfigHook
	core.ConfigHook = func(cfg *core.Config) {
		if prev != nil {
			prev(cfg)
		}
		mutate(cfg)
	}
	defer func() { core.ConfigHook = prev }()
	fn()
}

// withTLBDisabled runs fn with every cluster forced onto the locked-only
// access path, restoring the default afterwards.
func withTLBDisabled(t *testing.T, fn func()) {
	t.Helper()
	withConfig(t, func(cfg *core.Config) { cfg.NoAccessTLB = true }, fn)
}

// TestAllocFreeScalarHits: read hits and dirty-write hits through the four
// typed scalar accessors allocate nothing (the generic Get/Set they used to
// forward to boxed every value through any).
func TestAllocFreeScalarHits(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := argo.DefaultConfig(1)
	cfg.MemoryBytes = 1 << 20
	c := argo.MustNewCluster(cfg)
	xs, ks := c.AllocF64(512), c.AllocI64(512)
	var allocs float64
	c.Run(1, func(th *argo.Thread) {
		th.SetF64(xs, 0, 1) // warm: pages resident and dirty, TLB filled
		th.SetI64(ks, 0, 1)
		allocs = testing.AllocsPerRun(200, func() {
			v := th.GetF64(xs, 0)
			th.SetF64(xs, 1, v+1)
			k := th.GetI64(ks, 0)
			th.SetI64(ks, 1, k+1)
		})
	})
	if allocs != 0 {
		t.Fatalf("scalar hits allocated %.1f times per op, want 0", allocs)
	}
}

func TestReplayIdenticalFaultFreeRing(t *testing.T) {
	on, err := drf.RunRing(drf.DefaultRing(4))
	if err != nil {
		t.Fatal(err)
	}
	var off drf.Report
	withTLBDisabled(t, func() {
		off, err = drf.RunRing(drf.DefaultRing(4))
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.Makespan != off.Makespan || on.Digest != off.Digest {
		t.Fatalf("TLB changed the fault-free ring: makespan %d vs %d, digest %016x vs %016x",
			on.Makespan, off.Makespan, on.Digest, off.Digest)
	}
}

func TestReplayIdenticalUnderCorvus(t *testing.T) {
	plan, err := fault.ParsePlan("drop=0.01,stall=5us,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	pr := drf.DefaultRing(4)
	pr.Faults = &plan
	on, err := drf.RunRing(pr)
	if err != nil {
		t.Fatal(err)
	}
	var off drf.Report
	withTLBDisabled(t, func() {
		off, err = drf.RunRing(pr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.Makespan != off.Makespan || on.Digest != off.Digest || on.Faults != off.Faults {
		t.Fatalf("TLB changed the faulty ring: makespan %d vs %d, digest %016x vs %016x, faults %+v vs %+v",
			on.Makespan, off.Makespan, on.Digest, off.Digest, on.Faults, off.Faults)
	}
}

func TestReplayIdenticalUnderCrashes(t *testing.T) {
	plan := fault.DefaultPlan(7)
	plan.Crash = 0.05
	plan.CrashRestart = true
	pr := drf.DefaultRing(6)
	pr.Faults = &plan
	on, err := drf.RunRingCrash(pr)
	if err != nil {
		t.Fatal(err)
	}
	var off drf.CrashReport
	withTLBDisabled(t, func() {
		off, err = drf.RunRingCrash(pr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if on != off {
		t.Fatalf("TLB changed the crash ring:\n on: %+v\noff: %+v", on, off)
	}
}

func TestReplayIdenticalChaosLU(t *testing.T) {
	plan := fault.DefaultPlan(11)
	plan.Crash = 0.03
	plan.Partition = 0.1
	plan.PartitionDur = 2
	p := lu.DefaultCrashParams()
	p.Faults = &plan
	on, err := lu.RunCrash(p)
	if err != nil {
		t.Fatal(err)
	}
	var off lu.CrashReport
	withTLBDisabled(t, func() {
		off, err = lu.RunCrash(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	// LU makespans are scheduling-dependent (contended home NICs, see
	// DESIGN.md §13); the protocol decisions and the answer must match.
	if on.Digest != off.Digest || on.Epoch != off.Epoch || on.Deaths != off.Deaths ||
		on.Partitions != off.Partitions || on.History != off.History {
		t.Fatalf("TLB changed chaos LU:\n on: %+v\noff: %+v", on, off)
	}
}

// TestLynxReplayIdenticalCG is the A/B on the scalar gather the TLB exists
// for: a small CG, whose sparse matvec reads the direction vector one GetF64
// at a time, must report the same checksum bits whether its hits are served
// by the TLB or by the locked path — and, on one thread, the same makespan to
// the nanosecond. (With more threads which of them fetches a shared page is a
// host race, so there the makespan is not replayable even between two runs of
// one path.)
func TestLynxReplayIdenticalCG(t *testing.T) {
	p := cg.Params{N: 2048, PerRow: 8, Iters: 2}
	ref := wload.Checksum(cg.Serial(p))
	for _, g := range []struct{ nodes, tpn int }{{1, 1}, {2, 2}} {
		on := cg.RunArgo(argo.DefaultConfig(g.nodes), p, g.tpn)
		var off wload.Result
		withTLBDisabled(t, func() { off = cg.RunArgo(argo.DefaultConfig(g.nodes), p, g.tpn) })
		if math.Float64bits(on.Check) != math.Float64bits(off.Check) || (g.nodes*g.tpn == 1 && on.Time != off.Time) {
			t.Fatalf("TLB changed CG on %dx%d:\n on: makespan %d check %v\noff: makespan %d check %v",
				g.nodes, g.tpn, on.Time, on.Check, off.Time, off.Check)
		}
		if math.Abs(on.Check-ref) > 1e-6*math.Max(1, math.Abs(ref)) {
			t.Fatalf("CG checksum %v on %dx%d, serial reference %v", on.Check, g.nodes, g.tpn, ref)
		}
	}
}

// TestLynxReplayIdenticalTinyCacheDRF runs the ledger's drf_scatter geometry —
// every page multi-writer, 256 pages through a 128-page cache of 2-page
// lines, a 64-page write buffer — with the TLB on and off, fault-free and
// under the lu_chaos plan. Which thread first touches a page is a host race
// on this program, so its makespan is not replayable (drf/chaos.go); what
// must be bit-identical is the final memory, and every run must pass the
// program's own per-read checks and the cache invariants.
func TestLynxReplayIdenticalTinyCacheDRF(t *testing.T) {
	plan, err := fault.ParsePlan(luChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	pr := drf.Params{
		Seed: 5, Nodes: 4, TPN: 4, Elements: 131072, Epochs: 2, Reads: 512,
		PageSize: 4096, CacheLine: 64, PerLine: 2, WBPages: 64,
		Mode: coherence.ModePS3, Policy: mem.Interleaved,
	}
	var digests []uint64
	for _, faults := range []*fault.Plan{nil, &plan} {
		pr.Faults = faults
		on, err := drf.RunReport(pr)
		if err != nil {
			t.Fatalf("TLB on, faults %v: %v", faults != nil, err)
		}
		var off drf.Report
		withTLBDisabled(t, func() { off, err = drf.RunReport(pr) })
		if err != nil {
			t.Fatalf("TLB off, faults %v: %v", faults != nil, err)
		}
		if faults != nil && (on.Faults.Drops == 0 || off.Faults.Drops == 0) {
			t.Fatalf("chaos plan injected nothing: on %+v, off %+v", on.Faults, off.Faults)
		}
		digests = append(digests, on.Digest, off.Digest)
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Fatalf("final memory differs across TLB on/off x fault-free/chaos: %016x", digests)
		}
	}
}

// TestLynxReplayIdenticalTinyCacheChaosLU is TestReplayIdenticalChaosLU with the
// same tiny cache under a matrix twice its size, and the ledger's lu_chaos
// plan: crash-restarts, partitions and drops land on a cache that conflict-
// evicts and refills in place throughout.
func TestLynxReplayIdenticalTinyCacheChaosLU(t *testing.T) {
	plan, err := fault.ParsePlan(luChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	p := lu.CrashParams{Params: lu.Params{N: 384, Block: 32}, Nodes: 6, Faults: &plan}
	var on, off lu.CrashReport
	withConfig(t, func(cfg *core.Config) {
		cfg.CacheLines, cfg.PagesPerLine, cfg.WriteBufferPages = 64, 2, 64
	}, func() {
		if on, err = lu.RunCrash(p); err != nil {
			t.Fatal(err)
		}
		withTLBDisabled(t, func() { off, err = lu.RunCrash(p) })
		if err != nil {
			t.Fatal(err)
		}
	})
	if on.Deaths == 0 {
		t.Fatalf("plan killed nobody: %+v", on)
	}
	// Two crashes of one episode enter the history in host arrival order
	// (this plan has such a pair; see benchmark/README.md, Fingerprints), so
	// the decisions are compared as a multiset.
	decisions := func(h string) string {
		ds := strings.Fields(h)
		sort.Strings(ds)
		return strings.Join(ds, " ")
	}
	if on.Digest != off.Digest || on.Epoch != off.Epoch || on.Deaths != off.Deaths ||
		on.Partitions != off.Partitions || decisions(on.History) != decisions(off.History) {
		t.Fatalf("TLB changed tiny-cache chaos LU:\n on: %+v\noff: %+v", on, off)
	}
}
