package pqbench

import (
	"math/rand"
	"runtime"
	"testing"

	"argo/internal/racetag"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

func testParams() Params {
	return Params{OpsPerThread: 60, WorkUnits: 8, Preload: 64}
}

func TestNativeAllLocksComplete(t *testing.T) {
	p := testParams()
	for _, kind := range []NativeLockKind{NativePthread, NativeCohort, NativeQD} {
		r := RunNative(kind, 8, p)
		if r.Ops != int64(8*p.OpsPerThread) {
			t.Fatalf("%s: ops = %d, want %d", kind, r.Ops, 8*p.OpsPerThread)
		}
		if r.Time <= 0 || r.OpsPerUs <= 0 {
			t.Fatalf("%s: no time measured", kind)
		}
	}
}

func TestNativeQDDelegates(t *testing.T) {
	r := RunNative(NativeQD, 8, testParams())
	if r.Delegated == 0 {
		t.Fatal("QD benchmark never delegated a section")
	}
}

func TestQDFasterThanPthreadsUnderContention(t *testing.T) {
	p := Params{OpsPerThread: 150, WorkUnits: 4, Preload: 128}
	qd := RunNative(NativeQD, 16, p)
	pt := RunNative(NativePthread, 16, p)
	if qd.OpsPerUs <= pt.OpsPerUs {
		t.Fatalf("QD (%.3f ops/µs) not faster than pthreads (%.3f ops/µs)",
			qd.OpsPerUs, pt.OpsPerUs)
	}
}

func TestCohortBeatsPthreadsUnderContention(t *testing.T) {
	p := Params{OpsPerThread: 150, WorkUnits: 4, Preload: 128}
	co := RunNative(NativeCohort, 16, p)
	pt := RunNative(NativePthread, 16, p)
	if co.OpsPerUs <= pt.OpsPerUs {
		t.Fatalf("cohort (%.3f) not faster than pthreads (%.3f)", co.OpsPerUs, pt.OpsPerUs)
	}
}

func TestDSMAllLocksComplete(t *testing.T) {
	p := testParams()
	for _, kind := range []DSMLockKind{DSMHQDL, DSMCohort, DSMMutex} {
		cfg := wload.ArgoConfig(2, 16<<20)
		r := RunDSM(kind, cfg, 2, p)
		if r.Ops != int64(2*2*p.OpsPerThread) {
			t.Fatalf("%s: ops = %d", kind, r.Ops)
		}
		if r.Time <= 0 {
			t.Fatalf("%s: no time measured", kind)
		}
	}
}

func TestHQDLBeatsCohortOnDSM(t *testing.T) {
	p := Params{OpsPerThread: 80, WorkUnits: 8, Preload: 128}
	cfgA := wload.ArgoConfig(3, 32<<20)
	hq := RunDSM(DSMHQDL, cfgA, 4, p)
	cfgB := wload.ArgoConfig(3, 32<<20)
	co := RunDSM(DSMCohort, cfgB, 4, p)
	if hq.OpsPerUs <= co.OpsPerUs {
		t.Fatalf("HQDL (%.3f ops/µs) not faster than cohort (%.3f ops/µs)",
			hq.OpsPerUs, co.OpsPerUs)
	}
	if hq.SIFences >= co.SIFences {
		t.Fatalf("HQDL fences (%d) not fewer than cohort fences (%d)", hq.SIFences, co.SIFences)
	}
}

// TestLocalWorkStreamUnchanged: localWork's index draws are rng.Intn(64)
// draw for draw — same array contents, same virtual charge, and the
// generator left in the same state, so the keys and the insert/extract mix
// drawn after it are the ones the Intn loop produced.
func TestLocalWorkStreamUnchanged(t *testing.T) {
	const units = 250_000 // two draws each: half a million index draws per seed
	for _, seed := range []int64{1, 12345, 2654435761*15 + 12345} {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		gotArr, wantArr := make([]int64, 64), make([]int64, 64)
		p := &sim.Proc{}
		localWork(p, got, gotArr, units)
		for u := 0; u < units; u++ {
			wantArr[want.Intn(64)]++
			wantArr[want.Intn(64)]--
		}
		for i := range wantArr {
			if gotArr[i] != wantArr[i] {
				t.Fatalf("seed %d: arr[%d] = %d, the Intn(64) loop leaves %d", seed, i, gotArr[i], wantArr[i])
			}
		}
		if p.Now() != units*workUnitCost {
			t.Fatalf("seed %d: charged %d ns, want %d", seed, p.Now(), units*workUnitCost)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: generator state diverged: next draw %d, want %d", seed, g, w)
		}
		// The expression itself, one draw at a time.
		for d := 0; d < 1_000_000; d++ {
			if g, w := int(got.Int63()>>32)&63, want.Intn(64); g != w {
				t.Fatalf("seed %d: draw %d = %d, Intn(64) = %d", seed, d, g, w)
			}
		}
	}
}

// TestAllocPerOpDelegation: the delegated paths of both families allocate
// per run, not per operation — the key of an insert travels in the ring's
// argument word and the extract section is built once. Objects allocated by
// a run at 2 000 and at 8 000 operations per thread, after a warm-up at the
// larger size, may differ by less than 0.01 per extra operation (a closure
// per delegation reads about 1.0).
func TestAllocPerOpDelegation(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	const small, large = 2000, 8000
	for _, c := range []struct {
		name    string
		threads int
		run     func(p Params)
	}{
		{"RunDSM(argo-hqdl) 2x2", 4, func(p Params) { RunDSM(DSMHQDL, wload.ArgoConfig(2, 16<<20), 2, p) }},
		{"RunNative(qd) 4", 4, func(p Params) { RunNative(NativeQD, 4, p) }},
	} {
		mallocs := func(ops int) uint64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			c.run(Params{OpsPerThread: ops, WorkUnits: 8, Preload: 64})
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		mallocs(large) // warm-up: pools and caches reach their working size
		lo, hi := mallocs(small), mallocs(large)
		extra := float64(c.threads * (large - small))
		if growth := (float64(hi) - float64(lo)) / extra; growth >= 0.01 {
			t.Errorf("%s: %d objects at %d ops/thread, %d at %d: %.3f per extra operation, want < 0.01",
				c.name, lo, small, hi, large, growth)
		} else {
			t.Logf("%s: %d objects at %d ops/thread, %d at %d", c.name, lo, small, hi, large)
		}
	}
}
