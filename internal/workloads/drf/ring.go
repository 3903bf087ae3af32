package drf

// The ring: the one program in this package that is schedule-independent by
// construction, and crash-tolerant on top (Cygnus). Global memory is split
// into one block per node, homed at that node (blocked policy, block size
// chosen to align); each epoch every block is written by one node, all
// nodes meet at a barrier, and every block is read back and verified by
// another. One thread per node, and in every phase each NIC has exactly one
// remote client and each page exactly one registering node, so the
// protocol's operation multiset — and with it the injected fault schedule,
// the virtual makespan and even the timestamped membership history — is
// bit-reproducible run over run.
//
// Role assignment is STATIC, not rotated: block b is written by node b+1 and
// verified by node b+2 for as long as both live, and a death collapses each
// affected block onto a single surviving holder. This is load-bearing for
// bit-exact replay. A block whose writer set changes goes through an NW→SW
// or SW→MW directory transition, and the Notify that transition pushes into
// other holders' directory caches races (in host scheduling) with those
// holders' fence sweeps. In P/S3 the races the static geometry leaves are all
// benign — the notified entry yields the same ShouldSelfInvalidate decision
// before and after — but a writer handover while another live node still
// holds the block flips the old writer's decision (keep, as sole writer →
// invalidate, under MW) and makes the makespan depend on notify arrival
// order. Collapse avoids that by construction: a handover target is always
// the block's only surviving holder (the verifier inherits writing, the
// writer inherits verifying, or — both dead — a fresh node inherits a block
// nobody live holds), so every registration the recovery performs
// transitions a directory entry whose other holders are all dead and wiped.
// That is also why the ring owes no classification reset after a death
// (recovery.Table.Reset), and why crash-restart needs no handover at all:
// the rejoining node keeps its roles, and its re-registrations find its bits
// still set in the preserved home truth.
//
// Everything else — which episodes idle inside a partition window, which
// blocks a death lost and who rewrites them, when the schedule is hopeless —
// is package recovery's walk over the task table below. Because repairs
// rewrite the exact values the dead node would have published, the whole
// final memory image is bit-identical to the fault-free run; under a
// fault-free or transient-only plan the script is exactly write/verify per
// epoch.

import (
	"cmp"
	"fmt"
	"slices"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/recovery"
	"argo/internal/workloads/wload"
)

// RingParams shapes a ring program.
type RingParams struct {
	Nodes    int
	PerNode  int // elements per node block
	Epochs   int
	PageSize int

	Faults *fault.Plan // nil runs fault-free
}

// DefaultRing returns a ring program that exercises remote fetches,
// writebacks, registrations and notifications on every epoch.
func DefaultRing(nodes int) RingParams {
	return RingParams{Nodes: nodes, PerNode: 2048, Epochs: 6, PageSize: 1024}
}

// RingReport is a ring run's Report and its membership outcome. Every field
// replays bit-exactly under one plan.
type RingReport struct {
	Report
	recovery.Outcome
}

// ringTask writes block's elements with epoch's values, or verifies them.
type ringTask struct {
	epoch, block int
	verify       bool
}

// ringTable is the ring as a task table: per epoch a losable write phase and
// a verify phase over every block (home memory survives a crash, so even a
// dead node's block stays writable), dealt by the static role tables.
func ringTable(nodes, epochs int) recovery.Table[ringTask] {
	wtr := make([]int, nodes) // writer of block b; always a live member
	vfr := make([]int, nodes) // verifier of block b; always a live member
	for b := range wtr {
		wtr[b] = (b + 1) % nodes
		vfr[b] = (b + 2) % nodes
	}
	tab := recovery.Table[ringTask]{
		Assign: func(tasks []ringTask, _ []int) map[int][]ringTask {
			asg := map[int][]ringTask{}
			for _, t := range tasks {
				n := wtr[t.block]
				if t.verify {
					n = vfr[t.block]
				}
				asg[n] = append(asg[n], t)
			}
			return asg
		},
		Order: func(a, b ringTask) int { return cmp.Compare(a.block, b.block) },
		// A crash-stop hands the dying node's roles to survivors, collapsing
		// each affected block onto a single live holder: the handover must
		// never change a surviving holder's classification entry (see the
		// package comment for why collapse, rather than rebalancing).
		Handover: func(dead int, live []int) {
			for b := range wtr {
				switch wd, vd := wtr[b] == dead, vfr[b] == dead; {
				case wd && vd:
					// The collapsed sole owner died: the next live node round
					// the ring — which holds no copy of the block — inherits
					// both roles.
					o := -1
					for i := 1; i <= nodes && o < 0; i++ {
						if n := (b + i) % nodes; slices.Contains(live, n) {
							o = n
						}
					}
					wtr[b], vfr[b] = o, o
				case wd:
					// Writer died: its only surviving co-holder, the verifier,
					// inherits writing.
					wtr[b] = vfr[b]
				case vd:
					// Verifier died: the writer verifies its own block.
					vfr[b] = wtr[b]
				}
			}
		},
	}
	for e := 0; e < epochs; e++ {
		write, verify := make([]ringTask, nodes), make([]ringTask, nodes)
		for b := range write {
			write[b] = ringTask{epoch: e, block: b}
			verify[b] = ringTask{epoch: e, block: b, verify: true}
		}
		tab.Phases = append(tab.Phases,
			recovery.Phase[ringTask]{Tasks: write, Losable: true},
			recovery.Phase[ringTask]{Tasks: verify})
	}
	return tab
}

// RunRing executes the ring under pr.Faults (nil runs it fault-free). It
// asserts inside the program that every surviving read observes exactly the
// values the repair discipline guarantees, and returns the final memory
// digest — which must match the fault-free digest — plus the membership
// outcome.
func RunRing(pr RingParams) (RingReport, error) { return runRing(pr, wload.DigestOf[int64]) }

// runRing is RunRing with the digest taken by fold (the tests check it against
// the fold over a dump).
func runRing(pr RingParams, fold func(uint64, *core.Cluster, core.I64Slice) uint64) (RingReport, error) {
	if pr.Nodes < 3 {
		return RingReport{}, fmt.Errorf("drf: ring needs >= 3 nodes, got %d", pr.Nodes)
	}
	bytesPerNode := int64(pr.PerNode) * 8
	if bytesPerNode%int64(pr.PageSize) != 0 {
		return RingReport{}, fmt.Errorf("drf: ring block (%d B) must be page-multiple (%d B)", bytesPerNode, pr.PageSize)
	}
	cfg := core.DefaultConfig(pr.Nodes)
	// Exactly one block per node: with the blocked home policy, block i is
	// homed at node i.
	cfg.MemoryBytes = int64(pr.Nodes) * bytesPerNode
	cfg.PageSize = pr.PageSize
	cfg.Policy = mem.Blocked
	cfg.Faults = pr.Faults
	c := wload.MustCluster(cfg)
	defer c.Close()
	script, err := recovery.Plan(c.Health, ringTable(pr.Nodes, pr.Epochs))
	if err != nil {
		return RingReport{}, fmt.Errorf("drf: ring: %w", err)
	}
	xs := c.AllocI64(pr.Nodes * pr.PerNode)
	makespan, out, err := recovery.Run(c, script, func(th *core.Thread) func(ringTask) error {
		return func(t ringTask) error {
			lo, hi := t.block*pr.PerNode, (t.block+1)*pr.PerNode
			if !t.verify {
				for i := lo; i < hi; i++ {
					th.SetI64(xs, i, val(t.epoch, i))
				}
				return nil
			}
			for i := lo; i < hi; i++ {
				if got := th.GetI64(xs, i); got != val(t.epoch, i) {
					return fmt.Errorf("ring epoch %d: node %d read xs[%d]=%d, want %d", t.epoch, th.Node, i, got, val(t.epoch, i))
				}
			}
			return nil
		}
	})
	return RingReport{Report{Makespan: makespan, Digest: fold(digestBasis, c, xs), Stats: c.Stats()}, out}, err
}

// ReplayCheck asserts the chaos contract on the ring in full (see
// recovery.Replay): the runs under plan reproduce the fault-free memory image
// and agree bit-exactly on every field of the report — makespan, injected
// schedule, crash and suspect counts, membership epoch and the timestamped
// transition history. Unlike LU, the ring never gives a NIC two clients, so
// nothing is excluded.
func ReplayCheck(pr RingParams, plan fault.Plan) (RingReport, error) {
	return recovery.Replay(func(p *fault.Plan) (RingReport, error) {
		pr.Faults = p
		return RunRing(pr)
	}, plan, func(r RingReport) uint64 { return r.Digest }, func(r RingReport) RingReport { return r })
}
