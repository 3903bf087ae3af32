package nbody

import (
	"math"
	"testing"

	"argo/internal/core"
	"argo/internal/workloads/wload"
)

func testParams() Params { return Params{Bodies: 256, Steps: 3} }

func TestSerialConservesMomentumRoughly(t *testing.T) {
	// With symmetric pairwise forces the center of mass drifts only by the
	// initial net velocity; positions must stay finite.
	px, py := Serial(testParams())
	for i := range px {
		if math.IsNaN(px[i]) || math.IsInf(px[i], 0) || math.IsNaN(py[i]) {
			t.Fatalf("body %d diverged: (%v,%v)", i, px[i], py[i])
		}
	}
}

func TestVariantsAgreeExactly(t *testing.T) {
	p := testParams()
	px, py := Serial(p)
	want := checkOf(px, py)
	if r := RunLocal(p, 4); r.Check != want {
		t.Fatalf("local check %v != serial %v", r.Check, want)
	}
	if r := RunArgo(wload.ArgoConfig(2, 8<<20), p, 2); r.Check != want {
		t.Fatalf("argo check %v != serial %v", r.Check, want)
	}
	if r := RunMPI(2, 2, p); r.Check != want {
		t.Fatalf("mpi check %v != serial %v", r.Check, want)
	}
}

func TestUnevenBodies(t *testing.T) {
	p := Params{Bodies: 101, Steps: 2}
	px, py := Serial(p)
	want := checkOf(px, py)
	if r := RunLocal(p, 7); r.Check != want {
		t.Fatalf("uneven local check %v != %v", r.Check, want)
	}
	if r := RunMPI(2, 3, p); r.Check != want {
		t.Fatalf("uneven mpi check %v != %v", r.Check, want)
	}
	if r := RunArgo(wload.ArgoConfig(3, 8<<20), p, 2); r.Check != want {
		t.Fatalf("uneven argo check %v != %v", r.Check, want)
	}
}

func TestArgoScales(t *testing.T) {
	p := testParams()
	serial := RunLocal(p, 1)
	ar := RunArgo(wload.ArgoConfig(4, 8<<20), p, 4)
	if ar.Time >= serial.Time {
		t.Fatalf("argo 16 threads (%d) not faster than serial (%d)", ar.Time, serial.Time)
	}
}

func TestArgoProducerConsumerClassification(t *testing.T) {
	p := testParams()
	r := RunArgo(wload.ArgoConfig(2, 8<<20), p, 2)
	// Positions are single-writer pages: consumers refetch every step, so
	// there must be self-invalidations AND substantial SI filtering (own
	// pages survive).
	if r.Stats.SelfInvalidations == 0 {
		t.Fatal("consumers never refetched positions")
	}
	if r.Stats.SIFiltered == 0 {
		t.Fatal("classification filtered nothing")
	}
}

// TestInPlaceAnswerIsTheDumpFold: RunArgo's checksum of the final positions is
// read in place from the finished cluster and equals the fold over DumpF64's
// copy bit for bit.
func TestInPlaceAnswerIsTheDumpFold(t *testing.T) {
	folds := 0
	checksum := func(c *core.Cluster, s core.F64Slice) float64 {
		folds++
		in, dump := wload.ChecksumOf(c, s), wload.Checksum(c.DumpF64(s))
		if math.Float64bits(in) != math.Float64bits(dump) {
			t.Errorf("checksum in place %v, over the dump %v", in, dump)
		}
		return in
	}
	runArgo(wload.ArgoConfig(2, 8<<20), testParams(), 2, checksum)
	if folds != 2 {
		t.Fatalf("%d answers folded, want 2", folds)
	}
}
