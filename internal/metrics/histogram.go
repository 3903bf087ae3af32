// Log-bucketed, mergeable latency histograms.
//
// A Histogram keeps a fixed array of buckets per shard; recording is a
// handful of atomic adds on the shard the caller names (nodes use their node
// index, so threads of different nodes never touch the same cache lines).
// Buckets are logarithmic with four linear sub-buckets per power of two,
// which bounds the relative quantile error at 25% while keeping the whole
// histogram at 2 KB per shard — small enough to exist per metric per label.
//
// Snapshots are plain values that merge by bucket-wise addition, so
// percentiles of any union of shards (or of histograms from repeated runs)
// are exact over the bucketized data.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	subBits  = 2
	sub      = 1 << subBits // linear sub-buckets per power of two
	nBuckets = 64 * sub
	// numShards is the number of independent recording shards per
	// histogram. Callers pass a shard hint (node index); it is masked, so
	// any int works.
	numShards = 16
)

// bucketOf maps a non-negative value to its bucket index (monotone in v).
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < sub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= subBits
	return e*sub + int((v>>(uint(e)-subBits))&(sub-1))
}

// bucketMax returns the largest value that maps to bucket i (the upper edge
// reported by quantile estimation).
func bucketMax(i int) int64 {
	if i < sub {
		return int64(i)
	}
	e := uint(i / sub)
	s := int64(i % sub)
	lo := int64(1)<<e + s<<(e-subBits)
	return lo + int64(1)<<(e-subBits) - 1
}

type histShard struct {
	counts [nBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64
}

// histogram is a lock-free sharded latency histogram. The zero value is not
// usable; create through Registry.histogram. A nil *histogram ignores
// records, so probes can stay nil-check-only.
type histogram struct {
	name   string
	labels []Label
	shards [numShards]histShard
}

// newHistogram creates an empty histogram (shard minimums pre-set so the
// min CAS loop in Record needs no "first value" special case).
func newHistogram(name string, labels []Label) *histogram {
	h := &histogram{name: name, labels: labels}
	for i := range h.shards {
		h.shards[i].min.Store(math.MaxInt64)
		h.shards[i].max.Store(math.MinInt64)
	}
	return h
}

// record adds one observation (negative values clamp to 0). shardHint
// selects the recording shard (mask applied); pass the recording node or
// thread index so concurrent recorders spread across shards.
func (h *histogram) record(shardHint int, v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := &h.shards[shardHint&(numShards-1)]
	s.counts[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := s.min.Load()
		if v >= cur || s.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// histSnapshot is a plain-value copy of a histogram (or a merge of several).
type histSnapshot struct {
	Counts []int64 // len nBuckets when non-empty
	Count  int64
	Sum    int64
	Min    int64
	Max    int64
}

// snapshot merges all shards into one snapshot.
func (h *histogram) snapshot() histSnapshot {
	var out histSnapshot
	for i := range h.shards {
		out.merge(h.shardSnapshot(i))
	}
	return out
}

func (h *histogram) shardSnapshot(i int) histSnapshot {
	s := &h.shards[i]
	out := histSnapshot{
		Count: s.count.Load(),
		Sum:   s.sum.Load(),
		Min:   s.min.Load(),
		Max:   s.max.Load(),
	}
	if out.Count == 0 {
		return histSnapshot{}
	}
	out.Counts = make([]int64, nBuckets)
	for b := range s.counts {
		out.Counts[b] = s.counts[b].Load()
	}
	return out
}

// merge accumulates o into s (bucket-wise addition; min/max combine).
func (s *histSnapshot) merge(o histSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min = o.Min
		s.Max = o.Max
	} else {
		if o.Min < s.Min {
			s.Min = o.Min
		}
		if o.Max > s.Max {
			s.Max = o.Max
		}
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if s.Counts == nil {
		s.Counts = make([]int64, nBuckets)
	}
	for b, c := range o.Counts {
		s.Counts[b] += c
	}
}

// quantile returns the value at quantile q in [0,1]: the upper edge of the
// bucket holding the q-th observation, clamped to the observed [Min, Max].
// An empty snapshot returns 0.
func (s histSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range s.Counts {
		cum += c
		if cum >= rank {
			v := bucketMax(b)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// mean returns the exact arithmetic mean of the recorded values.
func (s histSnapshot) mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
