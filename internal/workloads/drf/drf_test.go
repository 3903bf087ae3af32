package drf

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/mem"
	"argo/internal/workloads/wload"
)

func TestRandomProgramsPass(t *testing.T) {
	rng := rand.New(rand.NewSource(20150615)) // HPDC'15
	n := 25
	if testing.Short() {
		n = 6
	}
	for i := 0; i < n; i++ {
		pr := Random(rng)
		if _, err := RunReport(pr); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
}

func TestFlagChainsPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		pr := Random(rng)
		pr.UseFlags = true
		if _, err := RunReport(pr); err != nil {
			t.Fatalf("flag program %d: %v", i, err)
		}
	}
}

func TestWorstCaseGeometry(t *testing.T) {
	// The most hostile deterministic corner: 1-page write buffer, 4-line
	// cache, tiny pages, multiple writers per page, mode S.
	pr := Params{
		Seed: 99, Nodes: 4, TPN: 2, Elements: 512, Epochs: 4, Reads: 64,
		PageSize: 256, CacheLine: 4, PerLine: 1, WBPages: 1,
		Mode: coherence.ModeS, Policy: mem.Blocked,
	}
	if _, err := RunReport(pr); err != nil {
		t.Fatal(err)
	}
}

func TestSuppressionUnderFalseSharing(t *testing.T) {
	pr := Params{
		Seed: 123, Nodes: 3, TPN: 2, Elements: 384, Epochs: 5, Reads: 48,
		PageSize: 512, CacheLine: 8, PerLine: 2, WBPages: 64,
		Mode: coherence.ModePS3, Policy: mem.Interleaved, Suppress: true,
	}
	if _, err := RunReport(pr); err != nil {
		t.Fatal(err)
	}
}

func TestRandomParamsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		pr := Random(rng)
		if pr.Nodes < 1 || pr.Nodes > 4 || pr.TPN < 1 || pr.TPN > 3 {
			t.Fatalf("shape out of range: %+v", pr)
		}
		if pr.PageSize&(pr.PageSize-1) != 0 {
			t.Fatalf("page size not a power of two: %+v", pr)
		}
	}
}

// ownersOracle is the owner table RunReport drew before it kept 16-bit ranks:
// one []int per epoch, from the same stream in the same order.
func ownersOracle(pr Params, nt int) [][]int {
	rng := rand.New(rand.NewSource(pr.Seed))
	owner := make([][]int, pr.Epochs)
	for e := range owner {
		owner[e] = make([]int, pr.Elements)
		for i := range owner[e] {
			owner[e][i] = rng.Intn(nt)
		}
	}
	return owner
}

// runReportOracle is RunReport's program over ownersOracle's table, kept as
// the reference the compact table must reproduce.
func runReportOracle(pr Params) (Report, error) {
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
	xs := c.AllocI64(pr.Elements)
	owner := ownersOracle(pr, pr.Nodes*pr.TPN)
	errCh := make(chan error, 1)
	makespan := c.Run(pr.TPN, func(th *core.Thread) {
		myRng := rand.New(rand.NewSource(pr.Seed ^ int64(th.Rank)*0x9E3779B9))
		for e := 0; e < pr.Epochs; e++ {
			for i := 0; i < pr.Elements; i++ {
				if owner[e][i] == th.Rank {
					th.SetI64(xs, i, val(e, i))
				}
			}
			th.Barrier()
			for k := 0; k < pr.Reads; k++ {
				i := myRng.Intn(pr.Elements)
				if got := th.GetI64(xs, i); got != val(e, i) {
					select {
					case errCh <- fmt.Errorf("epoch %d: thread %d read xs[%d]=%d", e, th.Rank, i, got):
					default:
					}
				}
			}
			th.Barrier()
		}
	})
	rep := Report{Makespan: makespan, Digest: wload.Digest(digestBasis, c.DumpI64(xs)), Stats: c.Stats()}
	select {
	case err := <-errCh:
		return rep, err
	default:
		return rep, nil
	}
}

// TestCompactOwnerTableIsTheSameProgram: with the owner table held as 16-bit
// ranks, every rank still writes exactly the elements the []int table gave it,
// and the run is the same run — the same final memory on a full cluster, and
// on one thread, where nothing depends on host arrival order, the same
// makespan to the nanosecond.
func TestCompactOwnerTableIsTheSameProgram(t *testing.T) {
	for _, seed := range []int64{1, 99, 20150615} {
		pr := Params{
			Seed: seed, Nodes: 3, TPN: 2, Elements: 1536, Epochs: 4, Reads: 64,
			PageSize: 512, CacheLine: 8, PerLine: 2, WBPages: 16,
			Mode: coherence.ModePS3, Policy: mem.Interleaved,
		}
		nt := pr.Nodes * pr.TPN
		got, want := ownerTable(pr, nt), ownersOracle(pr, nt)
		writes := make([]int, nt)
		for e := range want {
			for i, rank := range want[e] {
				if int(got[e*pr.Elements+i]) != rank {
					t.Fatalf("seed %d: epoch %d element %d is written by rank %d, the []int table says %d", seed, e, i, got[e*pr.Elements+i], rank)
				}
				writes[rank]++
			}
		}
		for rank, n := range writes {
			if n == 0 {
				t.Fatalf("seed %d: rank %d writes nothing — the test proves little", seed, rank)
			}
		}

		rep, err := RunReport(pr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := runReportOracle(pr)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Digest != ref.Digest {
			t.Fatalf("seed %d: report %+v, the []int program's %+v", seed, rep, ref)
		}

		pr.Nodes, pr.TPN = 1, 1
		if rep, err = RunReport(pr); err != nil {
			t.Fatal(err)
		}
		if ref, err = runReportOracle(pr); err != nil {
			t.Fatal(err)
		}
		if rep != ref {
			t.Fatalf("seed %d on one thread: report %+v, the []int program's %+v", seed, rep, ref)
		}
	}
}

func TestRejectsMoreRanksThanTheOwnerTableHolds(t *testing.T) {
	if _, err := RunReport(Params{Nodes: 128, TPN: 512}); err == nil {
		t.Fatal("65 536 threads accepted: their ranks do not fit 16 bits")
	}
}

// digestChecked is wload.DigestOf, failing t unless it equals the digest over
// DumpI64's copy bit for bit.
func digestChecked(t *testing.T, folds *int) func(uint64, *core.Cluster, core.I64Slice) uint64 {
	return func(basis uint64, c *core.Cluster, s core.I64Slice) uint64 {
		*folds++
		in, dump := wload.DigestOf(basis, c, s), wload.Digest(basis, c.DumpI64(s))
		if in != dump {
			t.Errorf("digest in place %016x, over the dump %016x", in, dump)
		}
		return in
	}
}

// TestInPlaceDigestsAreTheDumpFolds: the digests RunReport (with its
// home-truth check in the same walk), its flag chain and RunRing report are
// read in place from the finished cluster and equal the digests over
// DumpI64's copy bit for bit.
func TestInPlaceDigestsAreTheDumpFolds(t *testing.T) {
	pr := Params{
		Seed: 3, Nodes: 3, TPN: 2, Elements: 1500, Epochs: 3, Reads: 64,
		PageSize: 512, CacheLine: 8, PerLine: 2, WBPages: 16,
		Mode: coherence.ModePS3, Policy: mem.Interleaved,
	}
	folds := 0
	fold := digestChecked(t, &folds)
	home := func(c *core.Cluster, xs core.I64Slice, pr Params) (uint64, error) {
		digest, err := homeTruth(c, xs, pr)
		if want := fold(digestBasis, c, xs); digest != want {
			t.Errorf("home-truth walk digest %016x, DigestOf %016x", digest, want)
		}
		return digest, err
	}
	if _, err := runReport(pr, home); err != nil {
		t.Fatal(err)
	}
	if _, err := runFlagsReport(pr, fold); err != nil {
		t.Fatal(err)
	}
	if _, err := runRing(RingParams{Nodes: 4, PerNode: 256, Epochs: 3, PageSize: 1024}, fold); err != nil {
		t.Fatal(err)
	}
	if folds != 3 {
		t.Fatalf("%d answers folded, want 3", folds)
	}
}

// TestInPlaceHomeTruthNamesTheWrongWord: of two home words of a finished
// program overwritten behind the protocol's back, the home-truth check, which
// reads home memory in place, names the first.
func TestInPlaceHomeTruthNamesTheWrongWord(t *testing.T) {
	pr := Params{
		Seed: 5, Nodes: 2, TPN: 2, Elements: 1000, Epochs: 2, Reads: 16,
		PageSize: 512, CacheLine: 8, PerLine: 2, WBPages: 8,
		Mode: coherence.ModeS, Policy: mem.Interleaved,
	}
	const bad = 777
	_, err := runReport(pr, func(c *core.Cluster, xs core.I64Slice, pr Params) (uint64, error) {
		for _, i := range []int{bad, bad + 100} {
			a := xs.At(i)
			home := c.Space.HomeBytes(c.Space.PageOf(a))
			off := int(a) % c.Space.PageSize
			binary.LittleEndian.PutUint64(home[off:], binary.LittleEndian.Uint64(home[off:])+1)
		}
		return homeTruth(c, xs, pr)
	})
	if want := fmt.Sprintf("home xs[%d]=%d, want %d", bad, val(pr.Epochs-1, bad)+1, val(pr.Epochs-1, bad)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("home-truth check said %v, want %q", err, want)
	}
}
