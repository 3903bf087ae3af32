package ep

import (
	"math"
	"testing"

	"argo/internal/workloads/wload"
)

func testParams() Params { return Params{Chunks: 256, PairsPerChunk: 64} }

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

func TestChunkDeterministic(t *testing.T) {
	a := chunkPartial(7, 128)
	b := chunkPartial(7, 128)
	if a != b {
		t.Fatal("chunk partial not deterministic")
	}
	c := chunkPartial(8, 128)
	if a == c {
		t.Fatal("different chunks produced identical partials")
	}
}

func TestGaussianCountsPlausible(t *testing.T) {
	tot := Serial(Params{Chunks: 512, PairsPerChunk: 256})
	var accepted float64
	for _, q := range tot.Q {
		accepted += q
	}
	pairs := 512.0 * 256.0
	// Acceptance rate of the polar method is π/4 ≈ 0.785.
	rate := accepted / pairs
	if rate < 0.74 || rate > 0.83 {
		t.Fatalf("acceptance rate %v implausible", rate)
	}
	// The annulus counts must be decreasing after the first (a standard
	// normal concentrates near 0: |max| in [0,1) dominates).
	if !(tot.Q[0] > tot.Q[1] && tot.Q[1] > tot.Q[2] && tot.Q[3] < tot.Q[1]) {
		t.Fatalf("annulus histogram implausible: %v", tot.Q)
	}
	// Sample means of a standard normal should be near zero.
	if math.Abs(tot.Sx/accepted) > 0.05 || math.Abs(tot.Sy/accepted) > 0.05 {
		t.Fatalf("gaussian means implausible: %v %v", tot.Sx/accepted, tot.Sy/accepted)
	}
}

func TestVariantsAgree(t *testing.T) {
	p := testParams()
	want := checkOf(Serial(p))
	if r := RunLocal(p, 4); !approx(r.Check, want) {
		t.Fatalf("local check %v != serial %v", r.Check, want)
	}
	if r := RunArgo(wload.ArgoConfig(2, 8<<20), p, 2); !approx(r.Check, want) {
		t.Fatalf("argo check %v != serial %v", r.Check, want)
	}
	if r := RunUPC(2, 2, p); !approx(r.Check, want) {
		t.Fatalf("upc check %v != serial %v", r.Check, want)
	}
}

func TestThreadCountInvariance(t *testing.T) {
	p := testParams()
	a := RunLocal(p, 3).Check
	b := RunLocal(p, 11).Check
	if !approx(a, b) {
		t.Fatalf("chunked decomposition not thread-count invariant: %v vs %v", a, b)
	}
}

func TestEPScalesNearLinearly(t *testing.T) {
	p := Params{Chunks: 1024, PairsPerChunk: 128}
	serial := RunLocal(p, 1)
	par := RunLocal(p, 8)
	sp := par.Speedup(serial)
	if sp < 5 {
		t.Fatalf("EP local speedup at 8 threads only %.2f", sp)
	}
	ar := RunArgo(wload.ArgoConfig(4, 8<<20), p, 4)
	if sp := ar.Speedup(serial); sp < 6 {
		t.Fatalf("EP argo speedup at 16 threads only %.2f", sp)
	}
}
