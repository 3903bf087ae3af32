package lu

import (
	"math"
	"sync"
	"testing"

	"argo/internal/fault"
	"argo/internal/workloads/wload"
)

func testParams() Params { return Params{N: 64, Block: 16} }

// TestFactorizationCorrect reconstructs L·U and compares to the input.
func TestFactorizationCorrect(t *testing.T) {
	p := Params{N: 32, Block: 8}
	n := p.N
	a := matrix(n)
	f := Serial(p)
	// Rebuild L (unit lower) and U (upper) from the packed factor.
	prod := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				var lik float64
				switch {
				case k == i:
					lik = 1
				case k < i:
					lik = f[i*n+k]
				}
				if k <= j {
					s += lik * f[k*n+j]
				}
			}
			prod[i*n+j] = s
		}
	}
	maxRel := 0.0
	for i := range a {
		rel := math.Abs(prod[i]-a[i]) / (1 + math.Abs(a[i]))
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 1e-9 {
		t.Fatalf("L·U deviates from A by rel %v", maxRel)
	}
}

func TestVariantsAgreeExactly(t *testing.T) {
	p := testParams()
	want := wload.Checksum(Serial(p))
	if r := RunLocal(p, 4); r.Check != want {
		t.Fatalf("local check %v != serial %v", r.Check, want)
	}
	if r := RunLocal(p, 7); r.Check != want {
		t.Fatalf("local-7 check %v != serial %v", r.Check, want)
	}
	if r := RunArgo(wload.ArgoConfig(2, 8<<20), p, 2); r.Check != want {
		t.Fatalf("argo check %v != serial %v", r.Check, want)
	}
	if r := RunArgo(wload.ArgoConfig(3, 8<<20), p, 2); r.Check != want {
		t.Fatalf("argo-3n check %v != serial %v", r.Check, want)
	}
}

func TestLocalScales(t *testing.T) {
	p := Params{N: 96, Block: 16}
	serial := RunSerial(p)
	par := RunLocal(p, 8)
	if par.Time >= serial.Time {
		t.Fatalf("8 threads (%d) not faster than serial (%d)", par.Time, serial.Time)
	}
}

func TestArgoMigratoryTraffic(t *testing.T) {
	p := testParams()
	r := RunArgo(wload.ArgoConfig(2, 8<<20), p, 2)
	// LU's perimeter blocks migrate every step: writebacks and
	// self-invalidations must both be present in quantity.
	if r.Stats.Writebacks == 0 || r.Stats.SelfInvalidations == 0 {
		t.Fatalf("LU produced no migration traffic: %+v", r.Stats)
	}
}

// lossyPlan makes RunCrash repair lost kernels, the path on which it re-reads
// the most.
func lossyPlan() *fault.Plan {
	plan := mustPlan("crash=0.06,seed=20150615")
	return &plan
}

// TestRunnersOnlyReadSharedInput: the input matrix is built once per dimension.
// RunArgo and RunCrash copy it into home memory and must not write it; Serial
// and RunLocal factor in place, so they — and Matrix — must be handed a copy.
// What is shared is still the generator's formula, bit for bit.
func TestRunnersOnlyReadSharedInput(t *testing.T) {
	p := DefaultCrashParams().Params
	n := p.N
	shared := input(n)
	want := wload.Digest(digestBasis, shared)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ref := float64((i*16807+j*48271)%2000)/1000.0 - 1.0
			if i == j {
				ref += float64(2 * n)
			}
			if shared[i*n+j] != ref {
				t.Fatalf("input[%d,%d] = %v, the generator's formula gives %v", i, j, shared[i*n+j], ref)
			}
		}
	}
	if m := matrix(n); &m[0] == &shared[0] || wload.Digest(digestBasis, m) != want {
		t.Fatal("Matrix must return a copy of the shared input that the caller owns")
	}
	crash := DefaultCrashParams()
	crash.Faults = lossyPlan()
	for _, family := range []struct {
		name string
		run  func()
	}{
		{"Serial", func() { Serial(p) }},
		{"RunLocal", func() { RunLocal(p, 4) }},
		{"RunArgo", func() { RunArgo(wload.ArgoConfig(2, 8<<20), p, 2) }},
		{"RunCrash", func() {
			if _, err := RunCrash(crash); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		family.run()
		if &input(n)[0] != &shared[0] {
			t.Fatalf("%s: the input was rebuilt for a dimension that did not change", family.name)
		}
		if got := wload.Digest(digestBasis, shared); got != want {
			t.Fatalf("%s wrote to the shared input: digest %016x, was %016x", family.name, got, want)
		}
	}
}

// TestRunnerFamiliesShareInputConcurrently runs the two families that read the
// shared matrix, and one that copies it, at once; under -race (CI runs this
// package with it) a write to it by any of them is a reported race.
func TestRunnerFamiliesShareInputConcurrently(t *testing.T) {
	cp := DefaultCrashParams()
	p := cp.Params
	ref := Serial(p)
	var wg sync.WaitGroup
	for name, run := range map[string]func() bool{
		"RunLocal": func() bool { return RunLocal(p, 2).Check == wload.Checksum(ref) },
		"RunArgo":  func() bool { return RunArgo(wload.ArgoConfig(2, 8<<20), p, 2).Check == wload.Checksum(ref) },
		"RunCrash": func() bool {
			rep, err := RunCrash(cp)
			return err == nil && rep.Digest == wload.Digest(digestBasis, ref)
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !run() {
				t.Errorf("%s, run beside the other families, did not produce the serial factorization", name)
			}
		}()
	}
	wg.Wait()
}
