package span

import (
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// Step is one piece of the critical path, in time order. A lane step covers
// [Start, End] on thread (Node, Tid) with a per-category breakdown from the
// lane's paint; an edge step covers the wait between a pub at Start on
// (FromNode, FromTid) and the sub at End on (Node, Tid), attributed wholly
// to Cat.
type Step struct {
	Node  int   `json:"node"`
	Tid   int   `json:"tid"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`

	Edge     bool     `json:"edge,omitempty"`
	Kind     EdgeKind `json:"kind,omitempty"`
	FromNode int      `json:"from_node,omitempty"`
	FromTid  int      `json:"from_tid,omitempty"`

	// Cat is the dominant category of a lane step, or the wait category of
	// an edge step.
	Cat Category `json:"cat"`
	// ByCat is the full breakdown of a lane step (zero for edge steps,
	// whose whole duration goes to Cat).
	ByCat [numCategories]int64 `json:"by_cat,omitempty"`
}

// dur is the step's length in virtual ns.
func (s Step) dur() int64 { return s.End - s.Start }

// Report is the result of critical-path analysis: the longest weighted path
// through the makespan, with every nanosecond attributed.
type Report struct {
	Makespan    int64                `json:"makespan"`
	Attribution [numCategories]int64 `json:"attribution"`
	Steps       []Step               `json:"steps"`

	// MatchedEdges counts sub records across the whole DAG (not just the
	// path) that found a causal pub; UnmatchedSubs counts those that did
	// not. Spans counts paint records.
	MatchedEdges  int `json:"matched_edges"`
	UnmatchedSubs int `json:"unmatched_subs"`
	Spans         int `json:"spans"`
}

// attributionTotal sums the attribution vector; by construction it equals
// Makespan exactly.
func (r *Report) attributionTotal() int64 {
	var t int64
	for _, v := range r.Attribution {
		t += v
	}
	return t
}

// topSegments returns the k longest steps of the path, longest first, with
// deterministic tie-breaking (earlier start, then lane order).
func (r *Report) topSegments(k int) []Step {
	out := append([]Step(nil), r.Steps...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if d1, d2 := a.dur(), b.dur(); d1 != d2 {
			return d1 > d2
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Tid < b.Tid
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Digest is an FNV-64a hash over the canonical encoding of the path and the
// attribution vector. Two replays of the same seeded run must produce equal
// digests.
func (r *Report) Digest() uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		u := uint64(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(r.Makespan)
	for _, v := range r.Attribution {
		put(v)
	}
	put(int64(len(r.Steps)))
	for _, s := range r.Steps {
		put(int64(s.Node))
		put(int64(s.Tid))
		put(s.Start)
		put(s.End)
		flags := int64(s.Cat) | int64(s.Kind)<<8
		if s.Edge {
			flags |= 1 << 16
		}
		put(flags)
	}
	return h.Sum64()
}

// laneKey identifies one thread timeline.
type laneKey struct {
	node, tid int
}

// paintSeg is one uniformly-painted interval of a lane.
type paintSeg struct {
	start, end int64
	cat        Category
}

// paintHeap orders active spans by (duration asc, start desc, cat desc):
// the narrowest paint wins, with deterministic tie-breaking.
type paintHeap []Record

func (h paintHeap) Len() int { return len(h) }
func (h paintHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if d1, d2 := a.T-a.Start, b.T-b.Start; d1 != d2 {
		return d1 < d2
	}
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	return a.Cat > b.Cat
}
func (h paintHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *paintHeap) Push(x interface{}) { *h = append(*h, x.(Record)) }
func (h *paintHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// paintLane resolves a lane's (possibly nested) spans into disjoint
// segments covering [0, end], narrowest span winning, gaps painted Compute.
// spans must be sorted by Start (ties broken any deterministic way).
func paintLane(spans []Record, end int64) []paintSeg {
	if end <= 0 {
		return nil
	}
	// Boundary sweep over all span starts and ends.
	bounds := make([]int64, 0, 2*len(spans)+2)
	bounds = append(bounds, 0, end)
	for _, s := range spans {
		if s.Start < end {
			bounds = append(bounds, s.Start)
		}
		if s.T < end {
			bounds = append(bounds, s.T)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	// Dedup.
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	bounds = uniq

	var h paintHeap
	next := 0
	var out []paintSeg
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		for next < len(spans) && spans[next].Start <= lo {
			if spans[next].T > lo {
				heap.Push(&h, spans[next])
			}
			next++
		}
		// Lazy-expire spans that ended at or before lo.
		for len(h) > 0 && h[0].T <= lo {
			heap.Pop(&h)
		}
		cat := Compute
		if len(h) > 0 {
			cat = h[0].Cat
		}
		if len(out) > 0 && out[len(out)-1].cat == cat && out[len(out)-1].end == lo {
			out[len(out)-1].end = hi
		} else {
			out = append(out, paintSeg{lo, hi, cat})
		}
	}
	return out
}

// lane holds one thread's analysis state.
type lane struct {
	key   laneKey
	spans []Record // sorted by Start
	subs  []Record // sorted by T (canonical order)
	paint []paintSeg
	end   int64
}

// accumulate adds the lane's paint over [a, b] into acc and byCat. Parts of
// the interval beyond the paint's coverage count as Compute.
func (l *lane) accumulate(a, b int64, acc *[numCategories]int64) {
	if b <= a {
		return
	}
	covered := a
	// Binary search for the first segment ending after a.
	i := sort.Search(len(l.paint), func(i int) bool { return l.paint[i].end > a })
	for ; i < len(l.paint) && l.paint[i].start < b; i++ {
		s := l.paint[i]
		lo, hi := s.start, s.end
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if lo > covered {
			acc[Compute] += lo - covered
		}
		if hi > lo {
			acc[s.cat] += hi - lo
			covered = hi
		}
	}
	if b > covered {
		acc[Compute] += b - covered
	}
}

// dominant returns the category with the largest share of acc, lowest
// category winning ties.
func dominant(acc [numCategories]int64) Category {
	best, bestV := Compute, int64(-1)
	for c, v := range acc {
		if v > bestV {
			best, bestV = Category(c), v
		}
	}
	return best
}

type pubKey struct {
	kind EdgeKind
	key  uint64
}

// Analyze builds the span DAG from recs and walks the critical path back
// from makespan. If makespan is 0 it is inferred as the largest record
// time. recs need not be pre-sorted.
func Analyze(recs []Record, makespan int64) (*Report, error) {
	if len(recs) == 0 {
		return nil, errors.New("span: empty record set (no probes attached?)")
	}
	sorted := append([]Record(nil), recs...)
	sortRecords(sorted)

	lanes := map[laneKey]*lane{}
	pubs := map[pubKey][]Record{} // in canonical (time) order
	rep := &Report{}
	var maxT int64
	for _, r := range sorted {
		if r.T > maxT {
			maxT = r.T
		}
		lk := laneKey{r.Node, r.Tid}
		l, ok := lanes[lk]
		if !ok {
			l = &lane{key: lk}
			lanes[lk] = l
		}
		if r.T > l.end {
			l.end = r.T
		}
		switch r.Type {
		case RSpan:
			rep.Spans++
			l.spans = append(l.spans, r)
		case RPub:
			pk := pubKey{r.Kind, r.Key}
			pubs[pk] = append(pubs[pk], r)
		case RSub:
			l.subs = append(l.subs, r)
		}
	}
	if makespan <= 0 {
		makespan = maxT
	}
	rep.Makespan = makespan

	// Match every sub to its causal pub: the latest pub of the same
	// (kind, key) not after the sub. This is a DAG-wide health check (CI
	// fails on an empty matched set) as well as the walk's edge relation.
	match := func(s Record) (Record, bool) {
		ps := pubs[pubKey{s.Kind, s.Key}]
		// Latest pub with T <= s.T.
		i := sort.Search(len(ps), func(i int) bool { return ps[i].T > s.T })
		if i == 0 {
			return Record{}, false
		}
		return ps[i-1], true
	}
	for _, l := range lanes {
		for _, s := range l.subs {
			if _, ok := match(s); ok {
				rep.MatchedEdges++
			} else {
				rep.UnmatchedSubs++
			}
		}
	}

	// Paint all lanes.
	laneOrder := make([]laneKey, 0, len(lanes))
	for lk := range lanes {
		laneOrder = append(laneOrder, lk)
	}
	sort.Slice(laneOrder, func(i, j int) bool {
		a, b := laneOrder[i], laneOrder[j]
		if a.node != b.node {
			return a.node < b.node
		}
		return a.tid < b.tid
	})
	for _, lk := range laneOrder {
		l := lanes[lk]
		sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
		end := l.end
		if end > makespan {
			end = makespan
		}
		l.paint = paintLane(l.spans, end)
	}

	// The walk starts on the lane whose activity reaches furthest
	// (deterministic tie-break: lowest node, then tid).
	var start *lane
	for _, lk := range laneOrder {
		l := lanes[lk]
		if start == nil || l.end > start.end {
			start = l
		}
	}

	// Backward walk. At (l, t), take the latest sub s on l with s.T <= t
	// whose matched pub is strictly earlier than s; attribute l's paint
	// over [s.T, t] and the edge wait over [pb.T, s.T], then jump to the
	// pub's lane at pb.T. Each jump strictly decreases t, so the walk
	// terminates and the covered intervals tile [0, makespan] exactly.
	var steps []Step
	cur, t := start, makespan
	for {
		var chosen Record
		var chosenPub Record
		found := false
		// l.subs is in ascending time order; scan backward from the last
		// sub not after t.
		i := sort.Search(len(cur.subs), func(i int) bool { return cur.subs[i].T > t })
		for j := i - 1; j >= 0; j-- {
			s := cur.subs[j]
			pb, ok := match(s)
			if !ok || pb.T >= s.T {
				continue
			}
			chosen, chosenPub, found = s, pb, true
			break
		}
		if !found {
			// Head of the path: everything before t is this lane's paint.
			var acc [numCategories]int64
			cur.accumulate(0, t, &acc)
			steps = append(steps, Step{
				Node: cur.key.node, Tid: cur.key.tid, Start: 0, End: t,
				Cat: dominant(acc), ByCat: acc,
			})
			break
		}
		var acc [numCategories]int64
		cur.accumulate(chosen.T, t, &acc)
		steps = append(steps, Step{
			Node: cur.key.node, Tid: cur.key.tid, Start: chosen.T, End: t,
			Cat: dominant(acc), ByCat: acc,
		})
		steps = append(steps, Step{
			Node: cur.key.node, Tid: cur.key.tid,
			Start: chosenPub.T, End: chosen.T,
			Edge: true, Kind: chosen.Kind, Cat: chosen.Cat,
			FromNode: chosenPub.Node, FromTid: chosenPub.Tid,
		})
		next, ok := lanes[laneKey{chosenPub.Node, chosenPub.Tid}]
		if !ok {
			// Pub on a lane with no other records (possible for crash pubs
			// recorded on the dead node's synthetic lane): treat the rest
			// as that lane's compute.
			next = &lane{key: laneKey{chosenPub.Node, chosenPub.Tid}}
		}
		cur, t = next, chosenPub.T
	}

	// Reverse into time order and fold into the attribution vector.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	for _, s := range steps {
		if s.Edge {
			rep.Attribution[s.Cat] += s.dur()
		} else {
			for c, v := range s.ByCat {
				rep.Attribution[c] += v
			}
		}
	}
	rep.Steps = steps

	if got := rep.attributionTotal(); got != makespan {
		return rep, fmt.Errorf("span: attribution %d != makespan %d", got, makespan)
	}
	return rep, nil
}
