package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/stats"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

// The simulated geometry every workload runs at: 16 goroutines that block on
// sync.Cond, so the numbers measure the library and not the Go scheduler
// (the paper's 15 threads/node would be 60).
const (
	benchNodes = 4
	benchTPN   = 4
	chaosNodes = 6 // lu.RunCrash runs one thread per node
)

// outcome is what one complete runner call returned, reduced to what the
// ledger records.
type outcome struct {
	virtNs int64
	// The answer, as the runner reports it: a checksum, a digest of the
	// final memory image, or the operations completed.
	check  float64
	digest uint64
	ops    int64
	// stats is nil when the runner's report does not carry the counters
	// (drf.Report, pqbench.Result, lu.CrashReport).
	stats *stats.Snapshot
	// counts are the per-layer counts the runner reports outside Stats.
	counts map[string]float64
	// fixed are the values that repeat exactly for every seed; seeded the
	// ones that repeat exactly for one seed (the fault schedule).
	fixed, seeded map[string]string
}

// prepared is a workload with its inputs generated and its reference
// answer computed: run makes one complete runner call for repetition rep,
// verify compares what it returned with the reference.
type prepared struct {
	run    func(rep int) (outcome, error)
	verify func(outcome) error
	model  accessModel
	// faultFreeVirtNs is the same geometry's fault-free makespan (lu_chaos).
	faultFreeVirtNs int64
}

// accessModel is what one run does, computed from the inputs and not
// counted by the library: the base of the attribution rows.
type accessModel struct {
	scalarReads, scalarWrites int64
	// gather says the scalar reads range over many pages (the strided
	// unit cost applies, not the one-page one).
	gather                  bool
	bulkReadKB, bulkWriteKB float64
	initKB, dumpKB          float64
	// sections critical sections, each costing lockMetric.
	sections   int64
	lockMetric string
}

type workload struct {
	name string
	why  string
	// prepare generates the inputs from seed and computes the reference;
	// tiny shrinks the input for the smoke test. corrupt makes the
	// reference wrong, which every repetition must then report as failed.
	prepare func(seed int64, tiny, corrupt bool) (*prepared, error)
}

func argoCfg() core.Config { return wload.ArgoConfig(benchNodes, 64<<20) }

// closeEnough is harness.closeEnough: 1e-6 relative.
func closeEnough(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-6*math.Abs(b)
}

func f64Bits(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

// statsFingerprint lists the Stats counters that repeated exactly across
// every measured run of the barrier workloads.
func statsFingerprint(check float64, s stats.Snapshot) map[string]string {
	return map[string]string{
		"checksum_bits":             f64Bits(check),
		"coherence.write_misses":    strconv.FormatInt(s.WriteMisses, 10),
		"coherence.writebacks":      strconv.FormatInt(s.Writebacks, 10),
		"coherence.writeback_bytes": strconv.FormatInt(s.WritebackBytes, 10),
		"coherence.si_fences":       strconv.FormatInt(s.SIFences, 10),
		"coherence.sd_fences":       strconv.FormatInt(s.SDFences, 10),
	}
}

// barrierOutcome reduces a barrier workload's result; its answer is checked
// against the serial checksum.
func barrierOutcome(res wload.Result) outcome {
	s := res.Stats
	return outcome{virtNs: int64(res.Time), check: res.Check, stats: &s, fixed: statsFingerprint(res.Check, s)}
}

func verifyChecksum(ref float64, corrupt bool) func(outcome) error {
	if corrupt {
		ref += 1 + math.Abs(ref)
	}
	return func(o outcome) error {
		if !closeEnough(o.check, ref) {
			return fmt.Errorf("checksum %.12g differs from the serial reference %.12g", o.check, ref)
		}
		return nil
	}
}

func verifyDigest(ref uint64, what string, corrupt bool) func(outcome) error {
	if corrupt {
		ref++
	}
	return func(o outcome) error {
		if o.digest != ref {
			return fmt.Errorf("digest %016x differs from the %s digest %016x", o.digest, what, ref)
		}
		return nil
	}
}

func prepareLU(_ int64, tiny, corrupt bool) (*prepared, error) {
	p := lu.Params{N: 768, Block: 32}
	if tiny {
		p = lu.Params{N: 96, Block: 32}
	}
	// Block transfers of one factorization, by the ownership rule RunArgo
	// uses: every get and put moves one block row by row.
	nb, nt := p.N/p.Block, benchNodes*benchTPN
	owner := func(bi, bj int) int { return (bi*nb + bj) % nt }
	var gets, puts int64
	for k := 0; k < nb; k++ {
		gets, puts = gets+1+int64(nt), puts+1 // diagonal: owner factors, all read it
		gets, puts = gets+int64(2*(nb-k-1)), puts+int64(2*(nb-k-1))
		for rank := 0; rank < nt; rank++ {
			for i := k + 1; i < nb; i++ {
				mine := int64(0)
				for j := k + 1; j < nb; j++ {
					if owner(i, j) == rank {
						mine++
					}
				}
				if mine > 0 {
					gets, puts = gets+1+2*mine, puts+mine
				}
			}
		}
	}
	blockKB := float64(p.Block*p.Block*8) / 1024
	matrixKB := float64(p.N*p.N*8) / 1024
	return &prepared{
		run:    func(int) (outcome, error) { return barrierOutcome(lu.RunArgo(argoCfg(), p, benchTPN)), nil },
		verify: verifyChecksum(lu.RunSerial(p).Check, corrupt),
		model: accessModel{
			bulkReadKB: float64(gets) * blockKB, bulkWriteKB: float64(puts) * blockKB,
			initKB: matrixKB, dumpKB: matrixKB,
		},
	}, nil
}

func prepareCG(_ int64, tiny, corrupt bool) (*prepared, error) {
	p := cg.Params{N: 65536, PerRow: 32, Iters: 32}
	if tiny {
		p = cg.Params{N: 2048, PerRow: 8, Iters: 2}
	}
	nnz := int64(len(cg.BuildMatrix(p).Val))
	vecKB := float64(p.N*8) / 1024
	return &prepared{
		run:    func(int) (outcome, error) { return barrierOutcome(cg.RunArgo(argoCfg(), p, benchTPN)), nil },
		verify: verifyChecksum(cg.RunSerial(p).Check, corrupt),
		model: accessModel{
			scalarReads: nnz * int64(p.Iters), gather: true,
			// Per iteration the threads stream d, x, r, q in and q, x, r, d out.
			bulkReadKB: float64(p.Iters) * 4 * vecKB, bulkWriteKB: float64(p.Iters) * 4 * vecKB,
			initKB: 2 * vecKB, dumpKB: vecKB,
		},
	}, nil
}

func prepareDRF(seed int64, tiny, corrupt bool) (*prepared, error) {
	pr := drf.Params{
		Nodes: benchNodes, TPN: benchTPN,
		Elements: 131072, Epochs: 6, Reads: 2048,
		PageSize: 4096, CacheLine: 64, PerLine: 2, WBPages: 64,
		Mode: coherence.ModePS3, Policy: mem.Interleaved,
	}
	if tiny {
		pr.Elements, pr.Epochs, pr.Reads = 4096, 2, 64
	}
	// The serial reference is the same program on one thread: the final
	// values do not depend on who wrote them.
	serial := pr
	serial.Nodes, serial.TPN = 1, 1
	ref, err := drf.RunReport(serial)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	return &prepared{
		run: func(rep int) (outcome, error) {
			pr := pr
			pr.Seed = repSeed(seed, rep)
			r, err := drf.RunReport(pr)
			return outcome{virtNs: int64(r.Makespan), digest: r.Digest,
				fixed: map[string]string{"digest": strconv.FormatUint(r.Digest, 16)}}, err
		},
		verify: verifyDigest(ref.Digest, "serial", corrupt),
		model: accessModel{
			scalarReads:  int64(pr.Epochs) * int64(pr.Reads) * benchNodes * benchTPN,
			scalarWrites: int64(pr.Epochs) * int64(pr.Elements), gather: true,
		},
	}, nil
}

func preparePQ(kind pqbench.DSMLockKind, lockMetric string, ops, tinyOps int) func(int64, bool, bool) (*prepared, error) {
	return func(_ int64, tiny, corrupt bool) (*prepared, error) {
		p := pqbench.Params{OpsPerThread: ops, WorkUnits: 48, Preload: 512}
		if tiny {
			p.OpsPerThread = tinyOps
		}
		want := int64(benchNodes * benchTPN * p.OpsPerThread)
		model := accessModel{sections: want, lockMetric: lockMetric}
		if corrupt {
			want++
		}
		return &prepared{
			run: func(int) (outcome, error) {
				r := pqbench.RunDSM(kind, argoCfg(), benchTPN, p)
				return outcome{
					virtNs: int64(r.Time), ops: r.Ops,
					counts: map[string]float64{
						"locks.delegated_sections": float64(r.Delegated),
						"coherence.si_fences":      float64(r.SIFences),
					},
					fixed: map[string]string{"ops": strconv.FormatInt(r.Ops, 10)},
				}, nil
			},
			verify: func(o outcome) error {
				if o.ops != want || o.virtNs <= 0 {
					return fmt.Errorf("ran %d operations in %d virtual ns, want %d operations", o.ops, o.virtNs, want)
				}
				return nil
			},
			model: model,
		}, nil
	}
}

func chaosSpec(seed int64) string {
	return fmt.Sprintf("crash=0.03,crashrestart=on,partition=0.05,partdur=2,drop=0.01,seed=%d", seed)
}

// decisionsFNV hashes the membership decisions as a multiset. The order in
// which two crashes of one episode enter the history follows host arrival
// (seed 42 flips n1 and n3 at episode 45 between runs), so only the sorted
// form repeats exactly.
func decisionsFNV(history string) string {
	ds := strings.Fields(history)
	sort.Strings(ds)
	h := fnv.New64a()
	h.Write([]byte(strings.Join(ds, " ")))
	return strconv.FormatUint(h.Sum64(), 16)
}

func prepareChaos(seed int64, tiny, corrupt bool) (*prepared, error) {
	cp := lu.CrashParams{Params: lu.Params{N: 768, Block: 32}, Nodes: chaosNodes}
	if tiny {
		cp.Params = lu.Params{N: 96, Block: 32}
	}
	base, err := lu.RunCrash(cp)
	if err != nil {
		return nil, fmt.Errorf("fault-free reference: %w", err)
	}
	return &prepared{
		run: func(rep int) (outcome, error) {
			plan, err := fault.ParsePlan(chaosSpec(repSeed(seed, rep)))
			if err != nil {
				return outcome{}, err
			}
			cp := cp
			cp.Faults = &plan
			r, err := lu.RunCrash(cp)
			return outcome{
				virtNs: int64(r.Makespan), digest: r.Digest,
				counts: map[string]float64{
					"health.deaths":   float64(r.Deaths),
					"health.suspects": float64(r.Partitions),
					"health.epochs":   float64(r.Epoch),
				},
				fixed: map[string]string{"digest": strconv.FormatUint(r.Digest, 16)},
				seeded: map[string]string{
					"decisions_fnv":   decisionsFNV(r.History),
					"health.deaths":   strconv.Itoa(r.Deaths),
					"health.suspects": strconv.Itoa(r.Partitions),
					"health.epochs":   strconv.FormatInt(r.Epoch, 10),
				},
			}, err
		},
		verify:          verifyDigest(base.Digest, "fault-free", corrupt),
		faultFreeVirtNs: int64(base.Makespan),
	}, nil
}

// workloads is the ledger's fixed set; names are final (BENCHMARK.json and
// every later PR's claims refer to them).
var workloads = []workload{
	{"lu_bulk", "256-byte bulk row reads/writes, 288 barriers, 71 MB of diffs: fence pipeline, twin/diff, write buffer, barrier and fabric work; scalar hit path idle", prepareLU},
	{"cg_gather", "69 M scalar GetF64 gathers on 3.6 k read misses: the TLB hit path does the work, the write path almost none, so a write-path change must not move it", prepareCG},
	{"drf_scatter", "seeded scalar SetI64 beside GetI64, every page multi-writer, working set twice the cache, 64-page write buffer: write miss, line mutex, eviction, refill", prepareDRF},
	{"pq_hqdl", "delegation queue with helper batching, one SI/SD pair per batch of critical sections; shortest run, so cluster build and launch cost show", preparePQ(pqbench.DSMHQDL, "locks.hqdl_delegate_host_ns", 4000, 40)},
	{"pq_mutex", "same locks layer used the other way: every critical section pays a global handoff plus both fences, so a fence or plain-lock cost shows here", preparePQ(pqbench.DSMMutex, "locks.mutex_cs_host_ns", 400, 20)},
	{"lu_chaos", "only coverage of fault, health, member barrier and repair planner: crash-restart, partitions and drops on six nodes, answer must equal the fault-free digest", prepareChaos},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
