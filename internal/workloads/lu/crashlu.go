package lu

// Crash-tolerant LU (Cygnus II): the blocked factorization of lu.go as a
// recovery task table, so that crash-stop and crash-restart node failures
// and partial network partitions at barrier safe points never cost an
// answer. The script — program phases (diagonal, perimeter or interior of
// some step k), repairs of the kernels a freshly dead owner lost,
// classification resets and idle bodies — comes from recovery.Plan; this
// file says what the kernels are and why LU's table is shaped as it is.
//
// Three rules keep the run both correct and bit-exact across replays, and
// each is one line of the table:
//
//   - Lost kernels re-run from home truth (every phase is Losable). A node
//     dying at the barrier after a phase never drained its write buffer, so
//     home memory still holds every output block at its exact pre-phase
//     value and every input block at its fenced, durable value. Re-running
//     the kernel — even the non-idempotent in-place ones — reproduces
//     bit-identical results.
//
//   - Every crash is followed by a classification reset at the first
//     fully-attended episode (Reset). A dead owner's blocks get new writers
//     — tasks are dealt round-robin over whoever is live — and a writer
//     handover under live co-holders would make Pyxis notify deliveries race
//     host-side fence sweeps (the hazard the ring's static-collapse geometry
//     avoids; LU's wide sharing cannot collapse).
//
//   - Partitioned episodes idle, cluster-wide: the planner's rule for every
//     workload.
//
// Crash-restart (Cygnus III) rides the same rules: a dying-and-restarting
// node keeps its membership slot, its lost kernels join the repair queue,
// and the reset-before-repair ordering makes the round-robin handover of
// those kernels safe. The races that used to make the planner reject
// restart plans — a rejoiner re-registering its reads concurrently with
// the survivors' reset rendezvous — are closed at runtime by the restart
// rendezvous (core.memberBarrier.observe): when a reset is in flight, the
// rejoiner is admitted only after the post-reset rendezvous completes.

import (
	"cmp"
	"fmt"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/recovery"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

// Kernel kinds of one LU task.
const (
	taskDiag  = iota // factor block (k,k)
	taskRow          // solveRow on block (k,j)
	taskCol          // solveCol on block (i,k)
	taskInner        // mulSub on block (i,j)
)

// luTask names one block kernel of step k. Each task reads only blocks
// fenced at earlier barriers plus its own output block, so any DRF subset
// of one phase can run as a body.
type luTask struct {
	kind, k, i, j int
}

// digestBasis starts CrashReport.Digest. It is FNV-1a's offset basis short of
// its last digit — a slip as old as this file — and stays, because the
// ledger's lu_chaos digest fingerprint and every recorded chaos-LU digest were
// taken with it.
const digestBasis = 1469598103934665603

// CrashParams sizes the crash-tolerant factorization.
type CrashParams struct {
	Params
	Nodes  int
	Faults *fault.Plan // nil runs fault-free
}

// DefaultCrashParams is a small, CI-sized instance: 3×3 blocks over six
// nodes leaves room for deaths and a cut while staying fast under -race.
func DefaultCrashParams() CrashParams {
	return CrashParams{Params: Params{N: 96, Block: 32}, Nodes: 6}
}

// CrashReport is the outcome of one crash-tolerant factorization.
//
// History is the time-free decision form (health.Transition.Decision): LU
// saturates home NICs, so transition timestamps and the makespan carry the
// scheduling jitter the sim package documents for contended resources,
// while the decision sequence itself is a pure function of the fault
// schedule and replays bit-exactly.
type CrashReport struct {
	Makespan   sim.Time
	Digest     uint64 // FNV over the final matrix bits
	Epoch      int64  // final membership epoch
	Deaths     int    // crash transitions observed
	Partitions int    // suspect transitions observed
	History    string // membership decision history (no timestamps)
}

// crashTable is the factorization as a task table: 3·nb losable phases in
// episode order (diagonal, perimeter, interior per step), dealt round-robin
// over the live set in task order, repaired in (k, i, j) order, with a
// classification reset after every death.
func crashTable(nb int) recovery.Table[luTask] {
	tab := recovery.Table[luTask]{
		Assign: func(tasks []luTask, live []int) map[int][]luTask {
			asg := map[int][]luTask{}
			for idx, task := range tasks {
				n := live[idx%len(live)]
				asg[n] = append(asg[n], task)
			}
			return asg
		},
		Order: func(x, y luTask) int {
			return cmp.Or(cmp.Compare(x.k, y.k), cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j))
		},
		Reset: true,
	}
	for k := 0; k < nb; k++ {
		diag := []luTask{{kind: taskDiag, k: k, i: k, j: k}}
		var perim, inner []luTask
		for j := k + 1; j < nb; j++ {
			perim = append(perim, luTask{kind: taskRow, k: k, i: k, j: j})
		}
		for i := k + 1; i < nb; i++ {
			perim = append(perim, luTask{kind: taskCol, k: k, i: i, j: k})
			for j := k + 1; j < nb; j++ {
				inner = append(inner, luTask{kind: taskInner, k: k, i: i, j: j})
			}
		}
		for _, tasks := range [][]luTask{diag, perim, inner} {
			tab.Phases = append(tab.Phases, recovery.Phase[luTask]{Tasks: tasks, Losable: true})
		}
	}
	return tab
}

// RunCrash executes the crash-tolerant factorization under p.Faults
// (typically a plan with crash and/or partition rates; nil runs it
// fault-free). The final matrix digest must match the fault-free run —
// repairs rewrite exactly the values the dead owners lost, and home memory
// survives both crashes and cuts.
func RunCrash(p CrashParams) (CrashReport, error) {
	return runCrash(p, wload.DigestOf[float64])
}

// runCrash is RunCrash with the digest of the factored matrix taken by fold
// (the tests check it against the fold over a dump).
func runCrash(p CrashParams, fold func(uint64, *core.Cluster, core.F64Slice) uint64) (CrashReport, error) {
	n, b := p.N, p.Block
	if n%b != 0 {
		return CrashReport{}, fmt.Errorf("lu: N %d not a multiple of block %d", n, b)
	}
	if p.Nodes < 2 {
		return CrashReport{}, fmt.Errorf("lu: crash run needs >= 2 nodes, got %d", p.Nodes)
	}
	nb := n / b
	cfg := core.DefaultConfig(p.Nodes)
	if need := int64(n*n*8) + 1<<20; cfg.MemoryBytes < need {
		cfg.MemoryBytes = need
	}
	cfg.Faults = p.Faults
	c := wload.MustCluster(cfg)
	defer c.Close()
	script, err := recovery.Plan(c.Health, crashTable(nb))
	if err != nil {
		return CrashReport{}, fmt.Errorf("lu: crash plan: %w", err)
	}
	ga := c.AllocF64(n * n)
	c.InitF64(ga, input(n))
	blockCost := sim.Time(b) * sim.Time(b) * sim.Time(b) * flopCost

	makespan, out, err := recovery.Run(c, script, func(th *core.Thread) func(luTask) error {
		get := func(dst []float64, bi, bj int) {
			for r := 0; r < b; r++ {
				off := (bi*b+r)*n + bj*b
				th.ReadF64s(ga, off, off+b, dst[r*b:(r+1)*b])
			}
		}
		put := func(bi, bj int, blk []float64) {
			for r := 0; r < b; r++ {
				off := (bi*b+r)*n + bj*b
				th.WriteF64s(ga, off, blk[r*b:(r+1)*b])
			}
		}
		diag := make([]float64, b*b)
		blk := make([]float64, b*b)
		left := make([]float64, b*b)
		return func(task luTask) error {
			switch task.kind {
			case taskDiag:
				get(diag, task.k, task.k)
				factorDiag(diag, b)
				put(task.k, task.k, diag)
				th.Compute(blockCost / 3)
			case taskRow:
				get(diag, task.k, task.k)
				get(blk, task.i, task.j)
				solveRow(diag, blk, b)
				put(task.i, task.j, blk)
				th.Compute(blockCost / 2)
			case taskCol:
				get(diag, task.k, task.k)
				get(blk, task.i, task.j)
				solveCol(diag, blk, b)
				put(task.i, task.j, blk)
				th.Compute(blockCost / 2)
			case taskInner:
				get(left, task.i, task.k)
				get(diag, task.k, task.j)
				get(blk, task.i, task.j)
				mulSub(blk, left, diag, b)
				put(task.i, task.j, blk)
				th.Compute(blockCost)
			}
			return nil
		}
	})
	return CrashReport{
		Makespan:   makespan,
		Digest:     fold(digestBasis, c, ga),
		Epoch:      out.Epoch,
		Deaths:     out.Deaths,
		Partitions: out.Suspects,
		History:    out.Decisions,
	}, err
}

// ReplayCheck asserts Cygnus II's guarantees on the factorization (see
// recovery.Replay): both chaotic runs produce the fault-free matrix image
// (recovery across crashes AND partitions), and they agree bit-exactly on
// membership epoch, death and suspect counts, and the complete membership
// decision history (deterministic replay of every heal-vs-excise verdict).
//
// Makespan is deliberately NOT part of the replay equality. Unlike the
// DRF ring — whose collapse geometry gives every NIC at most one client,
// making virtual times schedule-independent — LU's wide sharing saturates
// home NICs, and sim.Resource arbitrates saturated servers in host arrival
// order. Decisions stay exact because verdicts are pure functions of
// (seed, node, episode) serialized at the member barrier.
func ReplayCheck(p CrashParams, plan fault.Plan) (CrashReport, error) {
	return recovery.Replay(func(f *fault.Plan) (CrashReport, error) {
		p.Faults = f
		return RunCrash(p)
	}, plan, func(r CrashReport) uint64 { return r.Digest }, func(r CrashReport) CrashReport {
		r.Makespan = 0
		return r
	})
}
