package pqbench

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"argo/internal/core"
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

// The inputs of the evaluation (internal/harness/kernels.go): fig11's full
// size, and fig12's quick and full sizes.
var (
	fig11Full  = Params{OpsPerThread: 200, WorkUnits: 16, Preload: 512}
	fig12Quick = Params{OpsPerThread: 60, WorkUnits: 48, Preload: 512}
	fig12Full  = Params{OpsPerThread: 200, WorkUnits: 48, Preload: 512}
)

// inRunLocalWork is the local work as the threads once ran it inside the
// run, kept as the reference for the index draws the streams skip.
func inRunLocalWork(rng *rand.Rand, arr []int64, w int) {
	for u := 0; u < w; u++ {
		arr[int(rng.Int63()>>32)&63]++
		arr[int(rng.Int63()>>32)&63]--
	}
}

// inRunOps replays a thread body's draws as they were made inside the run —
// the local work, the insert/extract coin, the key — as the stream encodes
// them. keyOnInsert is RunUPC's order, which draws a key only for an insert.
func inRunOps(rng *rand.Rand, p Params, keyOnInsert bool) []op {
	var got []op
	arr := make([]int64, 64)
	for k := 0; k < p.OpsPerThread; k++ {
		inRunLocalWork(rng, arr, p.WorkUnits)
		if keyOnInsert {
			if rng.Intn(2) == 0 {
				got = append(got, op(rng.Int63n(1<<20)))
			} else {
				got = append(got, extractOp)
			}
			continue
		}
		ins := rng.Intn(2) == 0
		key := rng.Int63n(1 << 20)
		if ins {
			got = append(got, op(key))
		} else {
			got = append(got, extractOp)
		}
	}
	return got
}

// TestStreamsMatchInRunDraws: every family's stream is, operation for
// operation, what its threads drew inside the run — RunNative's and RunUPC's
// sources seeded from the thread id, RunDSM's the thread's own Thread.Rand
// (taken from a real launch of 480 threads), UPC drawing a key only for an
// insert.
func TestStreamsMatchInRunDraws(t *testing.T) {
	const threads = 480 // fig12's 32 nodes of 15
	ranks := []int{0, 1, 15, 479}
	for _, p := range []Params{fig12Quick, fig12Full, fig11Full} {
		dsmRefs := make([][]op, threads)
		c := wload.MustCluster(wload.ArgoConfig(1, 1<<20))
		c.Run(threads, func(th *core.Thread) {
			if slices.Contains(ranks, th.Rank) {
				dsmRefs[th.Rank] = inRunOps(th.Rand(), p, false)
			}
		})
		c.Close()
		for _, f := range []struct {
			name   string
			stream streams
			ref    func(id int) []op
		}{
			{"RunNative", nativeStreams.get(threads, p), func(id int) []op {
				return inRunOps(rand.New(rand.NewSource(int64(id)*2654435761+12345)), p, false)
			}},
			{"RunDSM", dsmStreams.get(threads, p), func(id int) []op { return dsmRefs[id] }},
			{"RunUPC", upcStreams.get(threads, p), func(id int) []op {
				return inRunOps(rand.New(rand.NewSource(int64(id)*2654435761+977)), p, true)
			}},
		} {
			for _, id := range ranks {
				got, want := f.stream.of(id, p.OpsPerThread), f.ref(id)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s %+v rank %d: operation %d is %d, the in-run draws give %d", f.name, p, id, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestOneThreadRowsPinned holds the runs whose virtual time does not follow
// the host scheduler — one thread — to their recorded nanoseconds (fig11's
// 3.604 / 2.276 / 3.604 ops/µs at one thread in EXPERIMENTS.md).
func TestOneThreadRowsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() Result
		want sim.Time
	}{
		{"RunNative(qd) 1", func() Result { return RunNative(NativeQD, 1, fig11Full) }, 55_494},
		{"RunNative(cohort) 1", func() Result { return RunNative(NativeCohort, 1, fig11Full) }, 87_892},
		{"RunNative(pthreads) 1", func() Result { return RunNative(NativePthread, 1, fig11Full) }, 55_494},
		{"RunDSM(argo-hqdl) 1x1", func() Result { return RunDSM(DSMHQDL, wload.ArgoConfig(1, 128<<20), 1, fig12Full) }, 1_020_787},
		{"RunDSM(cohort) 1x1", func() Result { return RunDSM(DSMCohort, wload.ArgoConfig(1, 128<<20), 1, fig12Full) }, 1_028_787},
		{"RunDSM(mutex) 1x1", func() Result { return RunDSM(DSMMutex, wload.ArgoConfig(1, 128<<20), 1, fig12Full) }, 1_020_389},
		{"RunUPC 1x1", func() Result { return RunUPC(1, 1, fig12Full) }, 150_538},
	} {
		if r := c.run(); r.Time != c.want {
			t.Errorf("%s: %d virtual ns, pinned at %d", c.name, r.Time, c.want)
		}
	}
}

// streamDigest is an FNV-1a of every operation of a stream.
func streamDigest(s []op) uint64 {
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, s); err != nil {
		panic(err)
	}
	return h.Sum64()
}

// TestStreamMemoSharesAndAllocatesNothing: a launch's streams are built once
// and every run they cover is handed the same array — a repetition, the other
// lock of a fig12 point, and a shorter run on fewer threads (the ledger's
// pq_mutex after pq_hqdl) — with no allocation on the way. What a covering
// build hands the shorter run is what a build of its own would draw.
func TestStreamMemoSharesAndAllocatesNothing(t *testing.T) {
	p := testParams()
	long := p
	long.OpsPerThread *= 2
	for name, f := range map[string]*family{"native": nativeStreams, "dsm": dsmStreams, "upc": upcStreams} {
		a, b := f.get(8, long), f.get(8, long)
		if &a.ops[0] != &b.ops[0] {
			t.Fatalf("%s: a second call rebuilt the streams", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { f.get(8, long) }); allocs != 0 {
			t.Fatalf("%s: a memo hit allocates %v times", name, allocs)
		}
		short, own := f.get(4, p), f.draw(keyOf(4, p))
		if &short.ops[0] != &a.ops[0] {
			t.Fatalf("%s: a shorter launch on fewer threads rebuilt the streams", name)
		}
		for id := 0; id < 4; id++ {
			if !slices.Equal(short.of(id, p.OpsPerThread), own.of(id, p.OpsPerThread)) {
				t.Fatalf("%s: thread %d's covered stream differs from its own build", name, id)
			}
		}
		if c := f.get(8, Params{OpsPerThread: long.OpsPerThread, WorkUnits: p.WorkUnits + 1}); &c.ops[0] == &a.ops[0] {
			t.Fatalf("%s: other local work was served from the same streams", name)
		}
	}
	s := dsmStreams.get(4, long)
	RunDSM(DSMHQDL, wload.ArgoConfig(2, 16<<20), 2, long)
	RunDSM(DSMCohort, wload.ArgoConfig(2, 16<<20), 2, long)
	RunDSM(DSMMutex, wload.ArgoConfig(2, 16<<20), 2, p)
	if got := dsmStreams.get(4, long); &got.ops[0] != &s.ops[0] {
		t.Fatal("the HQDL, Cohort and shorter mutex runs did not share one build")
	}
}

// TestRunnersShareStreamsConcurrently: an HQDL and a Cohort run execute at
// once on one shared stream; under -race (CI runs this package with it) a
// write to it by either is a reported race with the other's reads. Afterwards,
// and after a run of every other family, no stream has changed a bit.
func TestRunnersShareStreamsConcurrently(t *testing.T) {
	p := testParams()
	dsm, native, upc := dsmStreams.get(4, p), nativeStreams.get(4, p), upcStreams.get(4, p)
	want := [3]uint64{streamDigest(dsm.ops), streamDigest(native.ops), streamDigest(upc.ops)}
	var wg sync.WaitGroup
	for _, kind := range []DSMLockKind{DSMHQDL, DSMCohort} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := RunDSM(kind, wload.ArgoConfig(2, 16<<20), 2, p); r.Ops != int64(4*p.OpsPerThread) {
				t.Errorf("%s: %d operations", kind, r.Ops)
			}
		}()
	}
	wg.Wait()
	RunNative(NativeQD, 4, p)
	RunNative(NativePthread, 4, p)
	RunUPC(2, 2, p)
	for i, s := range []streams{dsm, native, upc} {
		if got := streamDigest(s.ops); got != want[i] {
			t.Fatalf("stream %d was written during the runs: digest %016x, was %016x", i, got, want[i])
		}
	}
	if s := dsmStreams.get(4, p); &s.ops[0] != &dsm.ops[0] {
		t.Fatal("the runs rebuilt the DSM streams")
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
		{"RunUPC 2x2", 4, func(p Params) { RunUPC(2, 2, p) }},
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
