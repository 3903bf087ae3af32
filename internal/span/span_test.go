package span

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"argo/internal/probe"
)

// The events these tests feed a recorder, named for what its projection makes
// of them: a remote read paints [start, end) Remote, a ticket release is a
// Handoff pub, the end of a ticket wait (here an instant: it paints nothing)
// a Handoff sub attributing to LockWait, a launch's end leaves the makespan.
func remote(node, tid int, start, end, arg int64) probe.Event {
	return probe.Event{Kind: probe.OpRead, Node: node, Tid: tid, Start: start, T: end, Arg: arg}
}
func handoffPub(node, tid int, t int64, key uint64) probe.Event {
	return probe.Event{Kind: probe.TicketRelease, Node: node, Tid: tid, Start: t, T: t, Key: key}
}
func handoffSub(node, tid int, t int64, key uint64) probe.Event {
	return probe.Event{Kind: probe.TicketWait, Node: node, Tid: tid, Start: t, T: t, Key: key}
}
func runEnd(makespan int64) probe.Event {
	return probe.Event{Kind: probe.RunEnd, Start: makespan, T: makespan}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Observe(remote(0, 0, 0, 10, 0))
	r.Observe(handoffPub(0, 0, 5, 1))
	r.Observe(handoffSub(0, 0, 7, 1))
	r.Observe(runEnd(100))
	if r.Records() != nil || r.Len() != 0 || r.Dropped() != 0 || r.Makespan() != 0 {
		t.Fatal("nil recorder misbehaved")
	}
	r.Reset()
}

func TestRecorderLimitAndReset(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Observe(remote(0, 0, int64(i), int64(i+1), 0))
	}
	if r.Len() != 2 || r.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 2/3", r.Len(), r.Dropped())
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 || r.Makespan() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestSpanIgnoresEmptyAndClamps(t *testing.T) {
	r := NewRecorder(0)
	r.Observe(remote(0, 0, 10, 10, 0)) // empty
	r.Observe(remote(0, 0, 10, 5, 0))  // inverted
	r.Observe(remote(0, 0, -5, 5, 0))  // clamped to 0
	recs := r.Records()
	if len(recs) != 1 || recs[0].Start != 0 || recs[0].T != 5 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestPaintNarrowestWins(t *testing.T) {
	spans := []Record{
		{Type: RSpan, Start: 0, T: 100, Cat: Remote},
		{Type: RSpan, Start: 20, T: 40, Cat: NIC},
	}
	segs := paintLane(spans, 100)
	want := []paintSeg{{0, 20, Remote}, {20, 40, NIC}, {40, 100, Remote}}
	if len(segs) != len(want) {
		t.Fatalf("segs = %+v", segs)
	}
	for i, s := range segs {
		if s != want[i] {
			t.Fatalf("seg %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestPaintGapsAreCompute(t *testing.T) {
	spans := []Record{{Type: RSpan, Start: 10, T: 20, Cat: SDBurst}}
	segs := paintLane(spans, 30)
	want := []paintSeg{{0, 10, Compute}, {10, 20, SDBurst}, {20, 30, Compute}}
	for i, s := range segs {
		if s != want[i] {
			t.Fatalf("seg %d = %+v, want %+v", i, s, want[i])
		}
	}
}

// twoLaneHandoff builds the canonical scenario: lane (0,0) works remotely
// until it publishes a lock handoff at 50; lane (1,0) subscribes at 80 and
// works until the makespan at 100.
func twoLaneHandoff() []Record {
	r := NewRecorder(0)
	r.Observe(remote(0, 0, 0, 50, 0))
	r.Observe(handoffPub(0, 0, 50, 7))
	r.Observe(handoffSub(1, 0, 80, 7))
	r.Observe(remote(1, 0, 80, 100, 0))
	r.Observe(runEnd(100))
	return r.Records()
}

func TestAnalyzeHandoff(t *testing.T) {
	rep, err := Analyze(twoLaneHandoff(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 100 || rep.MatchedEdges != 1 || rep.UnmatchedSubs != 0 {
		t.Fatalf("report header: %+v", rep)
	}
	if got := rep.attributionTotal(); got != 100 {
		t.Fatalf("attribution total %d != makespan 100", got)
	}
	if rep.Attribution[Remote] != 70 || rep.Attribution[LockWait] != 30 {
		t.Fatalf("attribution = %+v", rep.Attribution)
	}
	// head on lane 0, edge, tail on lane 1 — in time order.
	if len(rep.Steps) != 3 {
		t.Fatalf("steps = %+v", rep.Steps)
	}
	if s := rep.Steps[0]; s.Edge || s.Node != 0 || s.Start != 0 || s.End != 50 {
		t.Fatalf("head step = %+v", s)
	}
	if s := rep.Steps[1]; !s.Edge || s.Kind != Handoff || s.FromNode != 0 || s.Node != 1 ||
		s.Start != 50 || s.End != 80 || s.Cat != LockWait {
		t.Fatalf("edge step = %+v", s)
	}
	if s := rep.Steps[2]; s.Edge || s.Node != 1 || s.Start != 80 || s.End != 100 {
		t.Fatalf("tail step = %+v", s)
	}
}

func TestAnalyzeOrderIndependent(t *testing.T) {
	recs := twoLaneHandoff()
	base, err := Analyze(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		rep, err := Analyze(shuffled, 100)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Digest() != base.Digest() {
			t.Fatalf("digest changed under shuffle: %016x vs %016x", rep.Digest(), base.Digest())
		}
	}
}

func TestDigestSensitivity(t *testing.T) {
	recs := twoLaneHandoff()
	base, _ := Analyze(recs, 100)
	recs2 := twoLaneHandoff()
	for i := range recs2 {
		if recs2[i].Type == RSub {
			recs2[i].T = 85 // later grant observation
		}
	}
	rep2, err := Analyze(recs2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Digest() == base.Digest() {
		t.Fatal("digest blind to a changed path")
	}
}

func TestAnalyzeUnmatchedSub(t *testing.T) {
	r := NewRecorder(0)
	r.Observe(handoffSub(0, 0, 30, 99)) // no pub anywhere
	rep, err := Analyze(r.Records(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchedEdges != 0 || rep.UnmatchedSubs != 1 {
		t.Fatalf("edges: %+v", rep)
	}
	if rep.attributionTotal() != 40 {
		t.Fatalf("attribution total %d", rep.attributionTotal())
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil, 0); err == nil {
		t.Fatal("empty record set should error")
	}
}

func TestAnalyzeSelfEdgeTerminates(t *testing.T) {
	// A sub whose only pub is at the same instant must be skipped, or the
	// backward walk would loop forever.
	r := NewRecorder(0)
	r.Observe(probe.Event{Kind: probe.ArriveGlobal, Start: 50, T: 50, Key: 1})
	r.Observe(probe.Event{Kind: probe.DepartGlobal, Start: 50, T: 50, Key: 1})
	rep, err := Analyze(r.Records(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.attributionTotal() != 60 {
		t.Fatalf("attribution total %d", rep.attributionTotal())
	}
}

func TestFlows(t *testing.T) {
	recs := twoLaneHandoff()
	flows := Flows(recs)
	if len(flows) != 1 {
		t.Fatalf("flows = %+v", flows)
	}
	f := flows[0]
	if f.FromNode != 0 || f.FromT != 50 || f.ToNode != 1 || f.ToT != 80 {
		t.Fatalf("flow = %+v", f)
	}
	if f.FromT > f.ToT {
		t.Fatal("non-causal flow")
	}
}

func TestIORoundTrip(t *testing.T) {
	r := NewRecorder(0)
	r.Observe(remote(0, 0, 0, 50, 3))
	r.Observe(handoffPub(0, 0, 50, 7))
	r.Observe(handoffSub(1, 2, 80, 7))
	r.Observe(runEnd(90))
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Makespan != 90 || len(lg.Records) != r.Len() {
		t.Fatalf("round trip: %+v", lg)
	}
	want := r.Records()
	for i, rec := range lg.Records {
		if rec != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
	}
}

func TestNames(t *testing.T) {
	for c := Category(0); c < numCategories; c++ {
		if c.String() == "category?" {
			t.Fatalf("category %d has no name", c)
		}
	}
	for k := EdgeKind(0); k < numEdgeKinds; k++ {
		if k.String() == "edge?" {
			t.Fatalf("edge kind %d has no name", k)
		}
	}
}

func TestBiographies(t *testing.T) {
	evs := []probe.Event{
		{T: 10, Node: 0, Kind: probe.ClassTransition, Page: 5, Arg: probe.ClassNWtoSW},
		{T: 20, Node: 1, Kind: probe.Invalidate, Page: 5},
		{T: 30, Node: 1, Kind: probe.Keep, Page: 5},
		{T: 40, Node: 0, Kind: probe.ReadMiss, Page: 5}, // not biographical
		{T: 50, Node: 0, Kind: probe.SIFence},           // no page
		{T: 15, Node: 2, Kind: probe.Invalidate, Page: 2},
	}
	bios := Biographies(evs)
	if len(bios) != 2 || bios[0].Page != 2 || bios[1].Page != 5 {
		t.Fatalf("bios = %+v", bios)
	}
	b := bios[1]
	if b.Transitions != 1 || b.Invalidated != 1 || b.Kept != 1 || len(b.Entries) != 3 {
		t.Fatalf("page 5 bio = %+v", b)
	}
	var buf bytes.Buffer
	if err := WriteBiographies(&buf, bios, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "page 5") || !strings.Contains(buf.String(), "NW→SW") {
		t.Fatalf("biography text: %q", buf.String())
	}
}

func TestWriteReport(t *testing.T) {
	rep, err := Analyze(twoLaneHandoff(), 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digest", "lock-wait", "Δ 0", "edge handoff"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// Every edge kind has a kind that publishes it and a kind that subscribes to
// it (an edge with one end can never match), every subscriber names the wait
// category its edge attributes, and only endpoints carry an edge.
func TestViewsPairEveryEdge(t *testing.T) {
	var pubs, subs [numEdgeKinds]int
	for k, v := range views {
		switch v.end {
		case RPub:
			pubs[v.edge]++
		case RSub:
			subs[v.edge]++
			if v.cat == Compute {
				t.Errorf("%s subscribes to %s but attributes to no wait category", probe.Kind(k), v.edge)
			}
		default:
			if v.edge != 0 {
				t.Errorf("%s names edge %s but is not an endpoint", probe.Kind(k), v.edge)
			}
		}
	}
	for e := EdgeKind(0); e < numEdgeKinds; e++ {
		if pubs[e] == 0 || subs[e] == 0 {
			t.Errorf("edge %s: %d publishing kinds, %d subscribing kinds", e, pubs[e], subs[e])
		}
	}
}
