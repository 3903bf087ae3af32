package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// lcg is a deterministic pseudo-random source (no math/rand seeding drift
// across Go versions).
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

func TestBucketOfMonotonicAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1023, 1024, 1 << 20, 1 << 40, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d)=%d not monotonic (prev %d)", v, b, prev)
		}
		if b >= nBuckets {
			t.Fatalf("bucketOf(%d)=%d out of range", v, b)
		}
		if mx := bucketMax(b); mx < v {
			t.Fatalf("bucketMax(%d)=%d < recorded value %d", b, mx, v)
		}
		prev = b
	}
}

// TestQuantileRelativeError checks the log-bucket guarantee: every reported
// quantile is an upper bound on the exact order statistic and overshoots it
// by at most one sub-bucket width (25% relative for values >= 4).
func TestQuantileRelativeError(t *testing.T) {
	h := newHistogram("t", nil)
	r := lcg(42)
	var vals []int64
	for i := 0; i < 20000; i++ {
		// Mix of magnitudes: latencies from ns to tens of ms.
		v := r.intn(1 << uint(4+r.intn(21)))
		vals = append(vals, v)
		h.record(int(r.intn(numShards)), v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.snapshot()
	if s.Count != int64(len(vals)) {
		t.Fatalf("count=%d want %d", s.Count, len(vals))
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if s.Sum != sum {
		t.Fatalf("sum=%d want %d", s.Sum, sum)
	}
	if s.Min != vals[0] || s.Max != vals[len(vals)-1] {
		t.Fatalf("min/max=%d/%d want %d/%d", s.Min, s.Max, vals[0], vals[len(vals)-1])
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		exact := vals[rank]
		got := s.quantile(q)
		if got < exact {
			t.Errorf("q%.3f: got %d < exact %d", q, got, exact)
		}
		if lim := exact + exact/4 + 1; got > lim {
			t.Errorf("q%.3f: got %d exceeds exact %d by more than 25%%", q, got, exact)
		}
	}
}

// TestMergedQuantilesBoundShardExtremes is the merge property test the
// sharded design relies on: the merged snapshot's min/max and quantile range
// must bound every per-shard snapshot's extremes, and quantiles must be
// monotone in q.
func TestMergedQuantilesBoundShardExtremes(t *testing.T) {
	h := newHistogram("t", nil)
	r := lcg(7)
	for i := 0; i < 5000; i++ {
		h.record(int(r.intn(numShards)), r.intn(1_000_000))
	}
	merged := h.snapshot()
	var total int64
	for sh := 0; sh < numShards; sh++ {
		ss := h.shardSnapshot(sh)
		total += ss.Count
		if ss.Count == 0 {
			continue
		}
		if merged.Min > ss.Min {
			t.Errorf("shard %d: merged min %d > shard min %d", sh, merged.Min, ss.Min)
		}
		if merged.Max < ss.Max {
			t.Errorf("shard %d: merged max %d < shard max %d", sh, merged.Max, ss.Max)
		}
		for _, q := range []float64{0.5, 0.99} {
			if v := ss.quantile(q); v < merged.Min || v > merged.Max+merged.Max/4+1 {
				t.Errorf("shard %d q%.2f=%d outside merged range [%d,%d]", sh, q, v, merged.Min, merged.Max)
			}
		}
	}
	if total != merged.Count {
		t.Fatalf("shard counts sum to %d, merged %d", total, merged.Count)
	}
	qs := []float64{0.5, 0.9, 0.99, 0.999}
	for i := 1; i < len(qs); i++ {
		if merged.quantile(qs[i]) < merged.quantile(qs[i-1]) {
			t.Fatalf("quantiles not monotone: q%v=%d < q%v=%d",
				qs[i], merged.quantile(qs[i]), qs[i-1], merged.quantile(qs[i-1]))
		}
	}
	if p := merged.quantile(0.999); p < merged.Min || p > merged.Max {
		t.Fatalf("p999=%d outside [min,max]=[%d,%d]", p, merged.Min, merged.Max)
	}
}

func TestHistogramMergeAddsAndEmptyIsNeutral(t *testing.T) {
	a := newHistogram("t", nil)
	b := newHistogram("t", nil)
	for i := int64(1); i <= 100; i++ {
		a.record(0, i)
		b.record(1, i*1000)
	}
	sa, sb := a.snapshot(), b.snapshot()
	sa.merge(sb)
	if sa.Count != 200 {
		t.Fatalf("merged count %d", sa.Count)
	}
	if sa.Min != 1 || sa.Max < 100000 {
		t.Fatalf("merged min/max %d/%d", sa.Min, sa.Max)
	}
	empty := histSnapshot{}
	before := sa
	sa.merge(empty)
	if sa.Count != before.Count || sa.Min != before.Min || sa.Max != before.Max {
		t.Fatalf("merging empty changed snapshot")
	}
	if q := (histSnapshot{}).quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	if m := (histSnapshot{}).mean(); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}

func TestNilSafety(t *testing.T) {
	var h *histogram
	h.record(3, 17) // must not panic
	var c *Counter
	c.add(1)
	c.add(5)
	var g *gauge
	g.set(2)
	var p *PageProfile
	p.readMiss(1)
	p.evict(2)
	var ls *lockCounters
	ls.acquired(10)
	ls.released(10)
}

// TestConcurrentRecording hammers one histogram and one counter from many
// goroutines; meaningful under -race, and the totals must still balance.
func TestConcurrentRecording(t *testing.T) {
	reg := newRegistry()
	h := reg.histogram("race_hist", "h")
	c := reg.Counter("race_count", "c")
	const workers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := lcg(w + 1)
			for i := 0; i < per; i++ {
				h.record(w, r.intn(1<<20))
				c.add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := h.snapshot().Count; got != workers*per {
		t.Fatalf("histogram count %d, want %d", got, workers*per)
	}
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
}
