package blackscholes

import (
	"math"
	"testing"

	"argo/internal/workloads/wload"
)

func testParams() Params { return Params{Options: 4096, Iters: 2} }

func TestPriceSanity(t *testing.T) {
	// A call deep in the money is worth about S - K·e^{-rT}; far out of
	// the money it is nearly worthless.
	deep := price(200, 50, 0.05, 0.2, 1)
	if math.Abs(deep-(200-50*math.Exp(-0.05))) > 1 {
		t.Fatalf("deep ITM price %v", deep)
	}
	if out := price(10, 500, 0.05, 0.2, 0.5); out > 1e-6 {
		t.Fatalf("deep OTM price %v", out)
	}
	// Monotone in volatility.
	if price(100, 100, 0.03, 0.4, 1) <= price(100, 100, 0.03, 0.1, 1) {
		t.Fatal("price not increasing in volatility")
	}
}

func TestInputDeterministic(t *testing.T) {
	s1, k1, r1, v1, t1 := input(1234)
	s2, k2, r2, v2, t2 := input(1234)
	if s1 != s2 || k1 != k2 || r1 != r2 || v1 != v2 || t1 != t2 {
		t.Fatal("Input is not deterministic")
	}
	if s1 < 50 || s1 > 150 || v1 < 0.1 || v1 > 0.6 {
		t.Fatalf("input out of range: S=%v v=%v", s1, v1)
	}
}

func TestVariantsAgree(t *testing.T) {
	p := testParams()
	want := wload.Checksum(Serial(p))
	local := RunLocal(p, 4)
	if local.Check != want {
		t.Fatalf("local check %v != serial %v", local.Check, want)
	}
	cfg := wload.ArgoConfig(2, 8<<20)
	ar := RunArgo(cfg, p, 2)
	if ar.Check != want {
		t.Fatalf("argo check %v != serial %v", ar.Check, want)
	}
	mp := RunMPI(2, 2, p)
	if mp.Check != want {
		t.Fatalf("mpi check %v != serial %v", mp.Check, want)
	}
}

func TestParallelFasterThanSerial(t *testing.T) {
	p := testParams()
	serial := RunLocal(p, 1)
	local := RunLocal(p, 8)
	if local.Time >= serial.Time {
		t.Fatalf("8 threads (%d) not faster than 1 (%d)", local.Time, serial.Time)
	}
	ar := RunArgo(wload.ArgoConfig(4, 8<<20), p, 8)
	if ar.Time >= serial.Time {
		t.Fatalf("argo 4 nodes (%d) not faster than serial (%d)", ar.Time, serial.Time)
	}
}

func TestArgoPrivatePagesNotInvalidated(t *testing.T) {
	p := testParams()
	ar := RunArgo(wload.ArgoConfig(2, 8<<20), p, 2)
	// Contiguous partitioning: only partition-boundary pages are shared,
	// so self-invalidations must be a small fraction of cached pages.
	if ar.Stats.SelfInvalidations > ar.Stats.ColdFetches/4 {
		t.Fatalf("too many self-invalidations (%d) for cold fetches (%d)",
			ar.Stats.SelfInvalidations, ar.Stats.ColdFetches)
	}
}
