package mm

import (
	"math"
	"testing"

	"argo/internal/core"
	"argo/internal/workloads/wload"
)

func testParams() Params { return Params{N: 48} }

func TestSerialCorrect(t *testing.T) {
	// Verify the ikj kernel against the textbook triple loop on a small case.
	n := 8
	a := makeMatrix(0, n)
	b := makeMatrix(1, n)
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			want[i*n+j] = s
		}
	}
	got := Serial(Params{N: n})
	if d := wload.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("serial MM deviates from reference by %v", d)
	}
}

func TestVariantsAgree(t *testing.T) {
	p := testParams()
	want := wload.Checksum(Serial(p))
	approx := func(got float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if r := RunLocal(p, 4); !approx(r.Check) {
		t.Fatalf("local check %v != %v", r.Check, want)
	}
	if r := RunArgo(wload.ArgoConfig(2, 8<<20), p, 2); !approx(r.Check) {
		t.Fatalf("argo check %v != %v", r.Check, want)
	}
	if r := RunMPI(2, 2, p); !approx(r.Check) {
		t.Fatalf("mpi check %v != %v", r.Check, want)
	}
}

func TestUnevenPartition(t *testing.T) {
	// More threads than rows in some blocks; N not divisible by threads.
	p := Params{N: 40}
	want := wload.Checksum(Serial(p))
	if r := RunLocal(p, 7); math.Abs(r.Check-want) > 1e-9 {
		t.Fatalf("uneven local check %v != %v", r.Check, want)
	}
	if r := RunMPI(2, 3, p); math.Abs(r.Check-want) > 1e-9 {
		t.Fatalf("uneven mpi check %v != %v", r.Check, want)
	}
}

func TestScalesWithThreads(t *testing.T) {
	p := Params{N: 64}
	serial := RunSerial(p)
	par := RunLocal(p, 8)
	if par.Time >= serial.Time {
		t.Fatalf("8 threads (%d) not faster than serial (%d)", par.Time, serial.Time)
	}
}

func TestArgoBIsReadOnlyShared(t *testing.T) {
	p := testParams()
	r := RunArgo(wload.ArgoConfig(2, 8<<20), p, 2)
	// B is never written in the parallel phase: pages of B classify S,NW.
	// Only the few C pages straddling a node boundary may invalidate, so
	// SI activity must stay a small constant, far below what is cached.
	if r.Stats.SelfInvalidations > 16 {
		t.Fatalf("read-only B was self-invalidated %d times", r.Stats.SelfInvalidations)
	}
	if r.Stats.SIFiltered <= r.Stats.SelfInvalidations {
		t.Fatalf("classification filtered %d pages vs %d invalidated",
			r.Stats.SIFiltered, r.Stats.SelfInvalidations)
	}
}

// TestInPlaceAnswerIsTheDumpFold: RunArgo's checksum of the product is
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
	if folds != 1 {
		t.Fatalf("%d answers folded, want 1", folds)
	}
}
