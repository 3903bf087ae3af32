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
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"argo"
	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/racetag"
	"argo/internal/sim"
	"argo/internal/stats"
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
// forward to boxed every value through any), and neither does a sparse
// product over resident pages.
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
		rowPtr, cols, coef, q := []int32{0, 3, 4}, []int32{0, 1, 511, 1}, []float64{1, 2, 3, 4}, make([]float64, 2)
		allocs = testing.AllocsPerRun(200, func() {
			v := th.GetF64(xs, 0)
			th.SetF64(xs, 1, v+1)
			k := th.GetI64(ks, 0)
			th.SetI64(ks, 1, k+1)
			th.SpMVF64(xs, rowPtr, cols, coef, 0, 2, q)
		})
	})
	if allocs != 0 {
		t.Fatalf("scalar hits allocated %.1f times per op, want 0", allocs)
	}
}

// ringTLBOnOff runs the ring with the TLB on and off: the whole report —
// makespan, digest, injected schedule, membership outcome — must not notice.
func ringTLBOnOff(t *testing.T, pr drf.RingParams) {
	t.Helper()
	on, err := drf.RunRing(pr)
	if err != nil {
		t.Fatal(err)
	}
	var off drf.RingReport
	withTLBDisabled(t, func() {
		off, err = drf.RunRing(pr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if on != off {
		t.Fatalf("TLB changed the ring:\n on: %+v\noff: %+v", on, off)
	}
}

func TestReplayIdenticalFaultFreeRing(t *testing.T) {
	ringTLBOnOff(t, drf.DefaultRing(4))
}

func TestReplayIdenticalUnderCorvus(t *testing.T) {
	plan, err := fault.ParsePlan("drop=0.01,stall=5us,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	pr := drf.DefaultRing(4)
	pr.Faults = &plan
	ringTLBOnOff(t, pr)
}

func TestReplayIdenticalUnderCrashes(t *testing.T) {
	plan := fault.Plan{Seed: 7}
	plan.Crash = 0.05
	plan.CrashRestart = true
	pr := drf.DefaultRing(6)
	pr.Faults = &plan
	ringTLBOnOff(t, pr)
}

func TestReplayIdenticalChaosLU(t *testing.T) {
	plan := fault.Plan{Seed: 11}
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

// gatherRun is what one run of gatherProgram reports.
type gatherRun struct {
	vals     [][]float64 // per rank, every value read, in program order
	stats    stats.Snapshot
	hits     int64
	makespan sim.Time
}

// gatherProgram is the one seeded program of TestLynxGatherReplayIdentical:
// the owners rewrite their blocks of an array twice the size of a node's page
// cache, and between barriers every thread multiplies seeded sparse matrices
// of 1 to 5 rows of 0 to 20 nonzeros, columns all over the array, by it —
// with one SpMVF64 per matrix, or one GetF64 per nonzero. The rows span
// resident, evicted and invalidated pages, so the fused product's calls stop
// at misses throughout.
func gatherProgram(t *testing.T, cfg core.Config, tpn int, fused bool) gatherRun {
	t.Helper()
	const pages, rounds, reads = 64, 3, 2048
	cfg.CacheLines, cfg.PagesPerLine, cfg.MemoryBytes = 16, 2, 1<<20
	c := argo.MustNewCluster(cfg)
	n, nt := pages*c.Cfg.PageSize/8, cfg.Nodes*tpn
	xs := c.AllocF64(n)
	value := func(round, i int) float64 { return float64(round*n + i) }
	out := gatherRun{vals: make([][]float64, nt)}
	wrong := make([]int, nt)
	out.makespan = c.RunSeeded(tpn, 7, func(th *argo.Thread) {
		lo, hi := wload.BlockRange(n, nt, th.Rank)
		blk := make([]float64, hi-lo)
		rowPtr, q := make([]int32, 1, 6), make([]float64, 5)
		var cols []int32
		var coef []float64
		for round := 0; round < rounds; round++ {
			for i := range blk {
				blk[i] = value(round, lo+i)
			}
			th.WriteF64s(xs, lo, blk)
			th.Barrier()
			for done := 0; done < reads; done += len(cols) + 1 {
				rowPtr, cols, coef = rowPtr[:1], cols[:0], coef[:0]
				for range 1 + th.Rand().Intn(5) {
					for range th.Rand().Intn(21) {
						cols = append(cols, int32(th.Rand().Intn(n)))
						coef = append(coef, 1/float64(1+th.Rand().Intn(9))) // inexact, so add order shows
					}
					rowPtr = append(rowPtr, int32(len(cols)))
				}
				rows := len(rowPtr) - 1
				if fused {
					th.SpMVF64(xs, rowPtr, cols, coef, 0, rows, q)
				} else {
					for i := range rows {
						var acc float64
						for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
							acc += coef[k] * th.GetF64(xs, int(cols[k]))
						}
						q[i] = acc
					}
				}
				for i := range rows {
					var want float64
					for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
						want += coef[k] * value(round, int(cols[k]))
					}
					if math.Float64bits(q[i]) != math.Float64bits(want) {
						wrong[th.Rank]++
					}
				}
				out.vals[th.Rank] = append(out.vals[th.Rank], q[:rows]...)
			}
			th.Barrier()
		}
	})
	for rank, w := range wrong {
		if w != 0 {
			t.Fatalf("fused %v: rank %d summed %d rows over stale or foreign values", fused, rank, w)
		}
	}
	out.stats, out.hits = c.Stats(), c.Hits()
	return out
}

// TestLynxGatherReplayIdentical: SpMVF64 is one GetF64 per nonzero, row after
// row. In every classification mode, with the TLB and without it, the two
// forms of gatherProgram compute the same bits; on one thread they also leave the same
// counters, the same hit count and the same makespan to the nanosecond. On
// 2x2 — fault-free and under a chaos plan — which thread of a node faults a
// page first is a host race (see TestLynxReplayIdenticalCG), so there the
// comparison is the values and the counters that repeat exactly run to run,
// the ones benchmark/fingerprints.json pins.
func TestLynxGatherReplayIdentical(t *testing.T) {
	plan, err := fault.ParsePlan("drop=0.02,delay=0.05,jitter=2us,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(s stats.Snapshot) [5]int64 {
		return [5]int64{s.WriteMisses, s.Writebacks, s.WritebackBytes, s.SIFences, s.SDFences}
	}
	for _, mode := range []coherence.Mode{coherence.ModeS, coherence.ModePS, coherence.ModePS3} {
		for _, g := range []struct {
			nodes, tpn int
			faults     *fault.Plan
		}{{1, 1, nil}, {2, 2, nil}, {2, 2, &plan}} {
			var ref gatherRun
			for i, v := range []struct{ fused, noTLB bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				cfg := argo.DefaultConfig(g.nodes)
				cfg.Mode, cfg.Faults, cfg.NoAccessTLB = mode, g.faults, v.noTLB
				got := gatherProgram(t, cfg, g.tpn, v.fused)
				what := fmt.Sprintf("mode %v, %dx%d, faults %v: fused %v, NoAccessTLB %v", mode, g.nodes, g.tpn, g.faults != nil, v.fused, v.noTLB)
				if i == 0 {
					ref = got
					if g.nodes*g.tpn == 1 && (ref.hits == 0 || ref.stats.ReadMisses == 0) {
						t.Fatalf("%s: %d hits, %d read misses: the program does not mix them", what, ref.hits, ref.stats.ReadMisses)
					}
					continue
				}
				for rank := range ref.vals {
					if !slices.Equal(got.vals[rank], ref.vals[rank]) {
						t.Fatalf("%s: rank %d computed other bits than the scalar TLB run", what, rank)
					}
				}
				if g.nodes*g.tpn == 1 {
					if got.stats != ref.stats || got.hits != ref.hits || got.makespan != ref.makespan {
						t.Fatalf("%s:\n got: makespan %d hits %d %+v\nwant: makespan %d hits %d %+v",
							what, got.makespan, got.hits, got.stats, ref.makespan, ref.hits, ref.stats)
					}
				} else if pinned(got.stats) != pinned(ref.stats) {
					t.Fatalf("%s: write misses, writebacks, writeback bytes, SI fences, SD fences %v, want %v", what, pinned(got.stats), pinned(ref.stats))
				}
			}
		}
	}
}

// TestLynxSpMVMatchesGetF64Walk: on one thread, SpMVF64 leaves exactly what
// the GetF64 walk it replaces leaves — the bits of every row, Stats(), Hits()
// and the makespan — wherever the fused product's calls meet their misses.
// Pages 0 and 1 of x are touched first (resident, in the TLB); page 3 is not,
// and on a two-line cache of one-page lines it shares page 1's line, so its
// miss bumps page 1's generation under the thread's entry.
func TestLynxSpMVMatchesGetF64Walk(t *testing.T) {
	epp := int32(argo.DefaultConfig(1).PageSize / 8)
	at := func(page, off int32) int32 { return page*epp + off }
	for _, tc := range []struct {
		name  string
		rows  [][]int32
		noTLB bool
	}{
		{"pairs of resident rows", [][]int32{{at(0, 1), at(1, 2)}, {at(1, 3), at(0, 4), at(0, 1)}, {at(1, 5)}, {at(0, 6)}}, false},
		{"odd row count", [][]int32{{at(0, 1)}, {at(1, 2), at(1, 9)}, {at(0, 3), at(1, 4)}}, false},
		{"unequal and empty rows", [][]int32{{}, {at(0, 1), at(0, 2), at(1, 3), at(0, 4)}, {at(1, 5)}, {}, {}, {at(0, 7), at(1, 8)}, {}}, false},
		{"miss in the first row", [][]int32{{at(0, 1), at(3, 2), at(0, 3)}, {at(1, 4)}, {at(3, 5)}, {at(0, 6)}}, false},
		{"miss in the second row", [][]int32{{at(0, 1), at(1, 2)}, {at(1, 3), at(3, 4)}, {at(0, 5)}, {at(3, 6)}}, false},
		{"miss in the longer row's tail", [][]int32{{at(0, 1)}, {at(1, 2), at(0, 3), at(0, 4), at(3, 5)}, {at(1, 6)}}, false},
		{"generation bump between two pairs", [][]int32{{at(1, 1)}, {at(0, 2)}, {at(3, 3)}, {at(0, 4)}, {at(1, 5), at(0, 6)}, {at(1, 7)}}, false},
		{"nil TLB", [][]int32{{at(0, 1), at(3, 2)}, {at(1, 3)}, {}, {at(0, 4), at(1, 5)}, {at(3, 6)}}, true},
	} {
		rowPtr, cols, coef := []int32{0}, []int32(nil), []float64(nil)
		for _, r := range tc.rows {
			for _, j := range r {
				cols, coef = append(cols, j), append(coef, 1/float64(3+len(coef))) // inexact, so add order shows
			}
			rowPtr = append(rowPtr, int32(len(cols)))
		}
		rows := len(tc.rows)
		var ref gatherRun
		for _, fused := range []bool{false, true} {
			cfg := argo.DefaultConfig(1)
			cfg.CacheLines, cfg.PagesPerLine, cfg.MemoryBytes, cfg.NoAccessTLB = 2, 1, 1<<20, tc.noTLB
			c := argo.MustNewCluster(cfg)
			xs := c.AllocF64(int(4 * epp))
			init := make([]float64, xs.Len)
			for i := range init {
				init[i] = math.Sqrt(float64(i + 2))
			}
			c.InitF64(xs, init)
			q := make([]float64, rows)
			got := gatherRun{makespan: c.Run(1, func(th *argo.Thread) {
				th.GetF64(xs, 0)
				th.GetF64(xs, int(epp))
				if fused {
					th.SpMVF64(xs, rowPtr, cols, coef, 0, rows, q)
					return
				}
				for i := range rows {
					var acc float64
					for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
						acc += coef[k] * th.GetF64(xs, int(cols[k]))
					}
					q[i] = acc
				}
			})}
			got.vals, got.stats, got.hits = [][]float64{q}, c.Stats(), c.Hits()
			c.Close()
			if !fused {
				ref = got
				if !tc.noTLB && ref.hits == 0 {
					t.Fatalf("%s: the walk made no TLB hits", tc.name)
				}
				for i := range rows {
					var want float64
					for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
						want += coef[k] * init[cols[k]]
					}
					if math.Float64bits(q[i]) != math.Float64bits(want) {
						t.Fatalf("%s: the walk's row %d is %v, want %v", tc.name, i, q[i], want)
					}
				}
				continue
			}
			for i := range rows {
				if math.Float64bits(got.vals[0][i]) != math.Float64bits(ref.vals[0][i]) {
					t.Fatalf("%s: row %d is %x, the GetF64 walk's %x", tc.name, i, math.Float64bits(got.vals[0][i]), math.Float64bits(ref.vals[0][i]))
				}
			}
			if got.stats != ref.stats || got.hits != ref.hits || got.makespan != ref.makespan {
				t.Fatalf("%s:\n got: makespan %d hits %d %+v\nwant: makespan %d hits %d %+v",
					tc.name, got.makespan, got.hits, got.stats, ref.makespan, ref.hits, ref.stats)
			}
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
		if faults != nil && (on.Stats.FaultsInjected == 0 || off.Stats.FaultsInjected == 0) {
			t.Fatalf("chaos plan injected nothing: on %d faults, off %d", on.Stats.FaultsInjected, off.Stats.FaultsInjected)
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
