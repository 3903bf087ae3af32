// Package drf generates and checks random data-race-free programs — the
// protocol's acid test. A program is a sequence of epochs separated by
// barriers; in each epoch every element of a shared array is written by
// exactly one randomly chosen thread, and after the barrier every thread
// reads a random sample and checks it observes exactly the values
// happens-before dictates. Any under-invalidation (stale reads), lost
// diff, broken notification or fence-ordering bug in Carina surfaces as a
// wrong value.
//
// The generator also exercises optional flag (signal/wait) chains between
// epochs, every classification mode, tiny caches and write buffers, both
// home policies and the single-writer diff-suppression extension.
//
// With a Corvus fault plan attached (Params.Faults), the same programs run
// under injected drops, delays, NIC stalls and transient atomic failures;
// RunChaos additionally asserts that answers are bit-identical to the
// fault-free run and that the injected schedule replays deterministically.
package drf

import (
	"fmt"
	"math"
	"math/rand"

	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/sim"
	"argo/internal/stats"
	"argo/internal/vela"
	"argo/internal/workloads/wload"
)

// Params shapes one random program.
type Params struct {
	Seed     int64
	Nodes    int
	TPN      int
	Elements int
	Epochs   int
	Reads    int // sample reads per thread per epoch

	PageSize  int
	CacheLine int // lines in the (deliberately small) cache
	PerLine   int
	WBPages   int
	Mode      coherence.Mode
	Policy    mem.Policy
	Suppress  bool
	UseFlags  bool // thread 0 signals a flag chain instead of pure barriers

	// Faults, when non-nil, arms the Corvus injector for the run.
	Faults *fault.Plan
}

// Report is the observable outcome of one program run: the virtual
// makespan, a digest of the final home-memory contents, and the cluster's
// counters, the faults injected and the reissues they cost among them. Any
// run's Digest must equal the fault-free Digest (recovery soundness); on the
// ring, two runs under the same fault plan produce identical Reports
// (determinism, see chaos.go).
type Report struct {
	Makespan sim.Time
	Digest   uint64
	Stats    stats.Snapshot
}

// digestBasis starts Report.Digest: the FNV-1a 64-bit offset basis.
const digestBasis = 14695981039346656037

// val is the value element i holds once epoch e has been written.
func val(e, i int) int64 { return int64(e)*1_000_000 + int64(i)*37 + 11 }

// Random draws a parameter set from rng.
func Random(rng *rand.Rand) Params {
	modes := []coherence.Mode{coherence.ModeS, coherence.ModePS, coherence.ModePS3}
	policies := []mem.Policy{mem.Interleaved, mem.Blocked}
	return Params{
		Seed:      rng.Int63(),
		Nodes:     1 + rng.Intn(4),
		TPN:       1 + rng.Intn(3),
		Elements:  256 + rng.Intn(1024),
		Epochs:    2 + rng.Intn(5),
		Reads:     32 + rng.Intn(64),
		PageSize:  256 << rng.Intn(3), // 256, 512, 1024
		CacheLine: 4 + rng.Intn(12),
		PerLine:   1 << rng.Intn(3), // 1, 2, 4
		WBPages:   1 << rng.Intn(12),
		Mode:      modes[rng.Intn(len(modes))],
		Policy:    policies[rng.Intn(len(policies))],
		Suppress:  rng.Intn(2) == 0,
	}
}

// RunReport executes one random program — the flag chain of runFlagsReport
// when pr.UseFlags is set — and returns its Report and an error describing
// the first coherence violation, if any.
func RunReport(pr Params) (Report, error) {
	if pr.UseFlags {
		return runFlagsReport(pr, wload.DigestOf[int64])
	}
	return runReport(pr, homeTruth)
}

// runReport is RunReport with the digest and the home-truth check taken by
// home (the tests check it against the fold over a dump, and corrupt home
// memory before it looks).
func runReport(pr Params, home func(*core.Cluster, core.I64Slice, Params) (uint64, error)) (Report, error) {
	nt := pr.Nodes * pr.TPN
	if nt > math.MaxUint16 {
		return Report{}, fmt.Errorf("drf: %d threads do not fit the owner table's 16-bit ranks", nt)
	}
	cfg := core.DefaultConfig(pr.Nodes)
	cfg.MemoryBytes = int64(pr.Elements*8) + 1<<20
	cfg.PageSize = pr.PageSize
	cfg.CacheLines = pr.CacheLine
	cfg.PagesPerLine = pr.PerLine
	cfg.WriteBufferPages = pr.WBPages
	cfg.Mode = pr.Mode
	cfg.Policy = pr.Policy
	cfg.SWDiffSuppress = pr.Suppress
	cfg.Faults = pr.Faults
	c := wload.MustCluster(cfg)
	defer c.Close()

	xs := c.AllocI64(pr.Elements)
	owner := ownerTable(pr, nt)

	errCh := make(chan error, nt)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	makespan := c.Run(pr.TPN, func(th *core.Thread) {
		myRng := rand.New(rand.NewSource(pr.Seed ^ int64(th.Rank)*0x9E3779B9))
		// A thread that has seen a stale value stops working but keeps
		// attending the barriers: its peers wait on a fixed count.
		failed := false
		rank := uint16(th.Rank)
		for e := 0; e < pr.Epochs; e++ {
			row := owner[e*pr.Elements : (e+1)*pr.Elements]
			for i := 0; i < len(row) && !failed; i++ {
				if row[i] == rank {
					th.SetI64(xs, i, val(e, i))
				}
			}
			th.Barrier()
			for k := 0; k < pr.Reads && !failed; k++ {
				i := myRng.Intn(pr.Elements)
				if got := th.GetI64(xs, i); got != val(e, i) {
					report(fmt.Errorf("epoch %d: thread %d read xs[%d]=%d, want %d (params %+v)",
						e, th.Rank, i, got, val(e, i), pr))
					failed = true
				}
			}
			th.Barrier()
		}
	})
	digest, homeErr := home(c, xs, pr)
	rep := Report{Makespan: makespan, Digest: digest, Stats: c.Stats()}
	select {
	case err := <-errCh:
		return rep, err
	default:
	}
	if homeErr != nil {
		return rep, homeErr
	}
	if err := c.CheckInvariants(); err != nil {
		return rep, fmt.Errorf("%v (params %+v)", err, pr)
	}
	return rep, nil
}

// homeTruth folds the final home memory of xs into the report's digest and,
// in the same in-place walk (core.ViewHome), checks that it holds the final
// epoch; the error names the first element that does not.
func homeTruth(c *core.Cluster, xs core.I64Slice, pr Params) (digest uint64, err error) {
	digest, i := digestBasis, 0
	core.ViewHome(c, xs, func(seg []int64) {
		for k, v := range seg {
			if want := val(pr.Epochs-1, i+k); v != want && err == nil {
				err = fmt.Errorf("home xs[%d]=%d, want %d (params %+v)", i+k, v, want, pr)
			}
		}
		i += len(seg)
		digest = wload.Digest(digest, seg)
	})
	return digest, err
}

// ownerTable draws the program: entry e*Elements+i is the rank, of nt, that
// writes element i in epoch e. The table is a function of the seed, so no two
// repetitions of a seeded workload share it and it is not memoised; it is kept
// as the 16-bit ranks it holds.
func ownerTable(pr Params, nt int) []uint16 {
	rng := rand.New(rand.NewSource(pr.Seed))
	owner := make([]uint16, pr.Epochs*pr.Elements)
	for k := range owner {
		owner[k] = uint16(rng.Intn(nt))
	}
	return owner
}

// runFlagsReport executes a producer-consumer chain synchronized with Vela
// flags instead of barriers: thread 0 writes, signals; each consumer waits
// and verifies. Exercises the acquire/release fence pairing of signal/wait.
// The digest is taken by fold (the tests check it against the fold over a
// dump).
func runFlagsReport(pr Params, fold func(uint64, *core.Cluster, core.I64Slice) uint64) (Report, error) {
	cfg := core.DefaultConfig(pr.Nodes)
	cfg.MemoryBytes = int64(pr.Elements*8) + 1<<20
	cfg.PageSize = pr.PageSize
	cfg.Mode = pr.Mode
	cfg.Faults = pr.Faults
	c := wload.MustCluster(cfg)
	defer c.Close()
	xs := c.AllocI64(pr.Elements)
	nt := pr.Nodes * pr.TPN
	flags := make([]*vela.Flag, nt)
	for i := range flags {
		flags[i] = vela.NewFlag(c, i%pr.Nodes)
	}
	errCh := make(chan error, nt)
	makespan := c.Run(pr.TPN, func(th *core.Thread) {
		if th.Rank == 0 {
			for i := 0; i < pr.Elements; i++ {
				th.SetI64(xs, i, int64(i)*7+3)
			}
			for _, f := range flags[1:] {
				f.Signal(th)
			}
			return
		}
		flags[th.Rank].Wait(th)
		for i := 0; i < pr.Elements; i += 17 {
			if got := th.GetI64(xs, i); got != int64(i)*7+3 {
				select {
				case errCh <- fmt.Errorf("flag consumer %d: xs[%d]=%d (params %+v)", th.Rank, i, got, pr):
				default:
				}
				return
			}
		}
	})
	rep := Report{Makespan: makespan, Digest: fold(digestBasis, c, xs), Stats: c.Stats()}
	select {
	case err := <-errCh:
		return rep, err
	default:
		return rep, nil
	}
}
