package wload

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"argo/internal/core"
	"argo/internal/racetag"
)

func TestBlockRangePartitions(t *testing.T) {
	// Every element assigned exactly once, blocks contiguous and balanced.
	f := func(nU, partsU uint8) bool {
		n := int(nU)
		parts := int(partsU)%16 + 1
		prevHi := 0
		for id := 0; id < parts; id++ {
			lo, hi := BlockRange(n, parts, id)
			if lo != prevHi || hi < lo {
				return false
			}
			if hi-lo > n/parts+1 {
				return false // imbalance
			}
			prevHi = hi
		}
		return prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumSensitive(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 3, 5}
	c := []float64{2, 1, 3, 4} // permutation must change the checksum
	if Checksum(a) == Checksum(b) || Checksum(a) == Checksum(c) {
		t.Fatal("checksum not sensitive to value or order changes")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if d := MaxAbsDiff([]float64{1, 2}, []float64{1, 2.5}); d != 0.5 {
		t.Fatalf("diff = %v", d)
	}
	if d := MaxAbsDiff([]float64{1}, []float64{1, 2}); !math.IsInf(d, 1) {
		t.Fatal("length mismatch should be infinite")
	}
	nan, inf := math.NaN(), math.Inf(1)
	if d := MaxAbsDiff([]float64{1, nan}, []float64{1, 2}); !math.IsInf(d, 1) {
		t.Fatalf("NaN against a number is %v away, should be infinite", d)
	}
	if d := MaxAbsDiff([]float64{1, 2}, []float64{nan, 2}); !math.IsInf(d, 1) {
		t.Fatalf("a number against NaN is %v away, should be infinite", d)
	}
	if d := MaxAbsDiff([]float64{nan, inf, 3}, []float64{nan, inf, 3.25}); d != 0.25 {
		t.Fatalf("equal NaNs and infinities should not count: diff = %v", d)
	}
}

// A Memo builds once per key, hands every caller the same value, allocates
// nothing on a hit, and replaces its one entry when the key changes.
func TestMemo(t *testing.T) {
	var m Memo[int, []int]
	builds := 0
	build := func(n int) []int {
		builds++
		return make([]int, n)
	}
	a, b := m.Get(3, build), m.Get(3, build)
	if builds != 1 || len(a) != 3 || &a[0] != &b[0] {
		t.Fatalf("same key: %d builds, values shared = %v", builds, &a[0] == &b[0])
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Get(3, build) }); allocs != 0 {
		t.Fatalf("a hit allocates %v times", allocs)
	}
	if c := m.Get(5, build); builds != 2 || len(c) != 5 {
		t.Fatalf("new key: %d builds, len %d", builds, len(c))
	}
	if d := m.Get(3, build); builds != 3 || len(d) != 3 || &d[0] == &a[0] {
		t.Fatalf("single entry: key 3 after key 5 took %d builds", builds)
	}
}

// GetCovering serves every key the held one covers from its one build, with
// no allocation, and replaces it for a key it does not cover.
func TestMemoCovering(t *testing.T) {
	var m Memo[int, []int]
	builds := 0
	build := func(n int) []int {
		builds++
		return make([]int, n)
	}
	atLeast := func(held, k int) bool { return held >= k }
	a, b := m.GetCovering(8, atLeast, build), m.GetCovering(3, atLeast, build)
	if builds != 1 || len(b) != 8 || &a[0] != &b[0] {
		t.Fatalf("covered key: %d builds, len %d", builds, len(b))
	}
	if allocs := testing.AllocsPerRun(100, func() { m.GetCovering(5, atLeast, build) }); allocs != 0 {
		t.Fatalf("a covered hit allocates %v times", allocs)
	}
	if c := m.GetCovering(9, atLeast, build); builds != 2 || len(c) != 9 {
		t.Fatalf("uncovered key: %d builds, len %d", builds, len(c))
	}
}

// Concurrent Gets of two keys each get their own key's value, never the one
// the other key just replaced it with.
func TestMemoConcurrentKeys(t *testing.T) {
	var m Memo[int, []int]
	build := func(n int) []int {
		v := make([]int, 8)
		for i := range v {
			v[i] = n
		}
		return v
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(key int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				for _, x := range m.Get(key, build) {
					if x != key {
						t.Errorf("Get(%d) returned the value built for %d", key, x)
						return
					}
				}
			}
		}(1 + g%2)
	}
	wg.Wait()
}

func TestResultSpeedupAndString(t *testing.T) {
	base := Result{System: "serial", Time: 1000}
	r := Result{System: "argo", Nodes: 4, Threads: 60, Time: 250, Check: 1.5}
	if sp := r.Speedup(base); sp != 4 {
		t.Fatalf("speedup = %v", sp)
	}
	zero := Result{Time: 0}
	if !math.IsInf(zero.Speedup(base), 1) {
		t.Fatal("zero-time speedup should be +Inf")
	}
	if s := r.String(); !strings.Contains(s, "argo") || !strings.Contains(s, "nodes=4") {
		t.Fatalf("String() = %q", s)
	}
}

func TestLocalMachineRun(t *testing.T) {
	m := NewLocalMachine()
	var total atomic.Int64
	ms := m.Run(4, func(lc *LocalCtx) {
		lc.Compute(int64(lc.ID) * 100)
		lc.Barrier()
		total.Add(1)
	})
	if total.Load() != 4 {
		t.Fatalf("ran %d bodies", total.Load())
	}
	if ms < 300 {
		t.Fatalf("makespan %d below slowest thread", ms)
	}
}

// inPlaceCluster builds a cluster of 512-byte pages holding a slice of n
// words: every page written when full, otherwise every third page left
// unwritten, so that the walk sees many segments, zeros among them.
func inPlaceCluster(t *testing.T, n int, full bool) (*core.Cluster, core.F64Slice, core.I64Slice) {
	cfg := ArgoConfig(2, 1<<20)
	cfg.PageSize = 512
	c := MustCluster(cfg)
	t.Cleanup(c.Close)
	xs := c.AllocF64(n)
	vals := make([]float64, n)
	for i := range vals {
		if full || i/64%3 != 1 {
			vals[i] = math.Sin(float64(i)) * 1e3
		}
	}
	for i := 0; i < n; i += 64 {
		if page := vals[i:min(i+64, n)]; full || i/64%3 != 1 {
			c.InitF64(core.F64Slice{Base: xs.At(i), Len: len(page)}, page)
		}
	}
	return c, xs, core.I64Slice(xs)
}

// TestFoldsInPlaceAreTheDumpFolds: ChecksumOf and DigestOf, which carry the
// index and the hash from one page segment to the next, give the bits
// Checksum and Digest give over DumpF64's and DumpI64's copies — over written
// and never-written pages, and a slice that ends inside a page.
func TestFoldsInPlaceAreTheDumpFolds(t *testing.T) {
	for _, full := range []bool{true, false} {
		c, xs, is := inPlaceCluster(t, 64*40+5, full)
		if got, want := ChecksumOf(c, xs), Checksum(c.DumpF64(xs)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("full=%v: ChecksumOf = %v, over the dump %v", full, got, want)
		}
		const basis = 14695981039346656037
		if got, want := DigestOf(basis, c, xs), Digest(basis, c.DumpF64(xs)); got != want {
			t.Errorf("full=%v: DigestOf[float64] = %x, over the dump %x", full, got, want)
		}
		if got, want := DigestOf(basis, c, is), Digest(basis, c.DumpI64(is)); got != want {
			t.Errorf("full=%v: DigestOf[int64] = %x, over the dump %x", full, got, want)
		}
	}
}

// TestFoldsInPlaceAllocateNothing: reading a fully written answer in place
// makes no copy and no closure on the heap.
func TestFoldsInPlaceAllocateNothing(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c, xs, _ := inPlaceCluster(t, 64*40+5, true)
	var sink uint64
	if a := testing.AllocsPerRun(20, func() { sink += math.Float64bits(ChecksumOf(c, xs)) }); a != 0 {
		t.Errorf("ChecksumOf allocated %.1f times a call, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { sink += DigestOf(7, c, xs) }); a != 0 {
		t.Errorf("DigestOf allocated %.1f times a call, want 0", a)
	}
}
