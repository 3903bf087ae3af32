package span

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"argo/internal/trace"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Span(0, 0, 0, 10, Remote, 0)
	r.Pub(0, 0, 5, Handoff, 1, 0)
	r.Sub(0, 0, 7, Handoff, 1, LockWait)
	r.NoteMakespan(100)
	if r.Records() != nil || r.Len() != 0 || r.Dropped() != 0 || r.Makespan() != 0 {
		t.Fatal("nil recorder misbehaved")
	}
	r.Reset()
}

func TestRecorderLimitAndReset(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Span(0, 0, int64(i), int64(i+1), Remote, 0)
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
	r.Span(0, 0, 10, 10, Remote, 0) // empty
	r.Span(0, 0, 10, 5, Remote, 0)  // inverted
	r.Span(0, 0, -5, 5, Remote, 0)  // clamped to 0
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
	r.Span(0, 0, 0, 50, Remote, 0)
	r.Pub(0, 0, 50, Handoff, 7, 0)
	r.Sub(1, 0, 80, Handoff, 7, LockWait)
	r.Span(1, 0, 80, 100, Remote, 0)
	r.NoteMakespan(100)
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
	if got := rep.AttributionTotal(); got != 100 {
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
	r.Span(0, 0, 0, 40, Compute, 0)
	r.Sub(0, 0, 30, Handoff, 99, LockWait) // no pub anywhere
	rep, err := Analyze(r.Records(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchedEdges != 0 || rep.UnmatchedSubs != 1 {
		t.Fatalf("edges: %+v", rep)
	}
	if rep.AttributionTotal() != 40 {
		t.Fatalf("attribution total %d", rep.AttributionTotal())
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
	r.Pub(0, 0, 50, Barrier, 1, 0)
	r.Sub(0, 0, 50, Barrier, 1, BarrierWait)
	r.Span(0, 0, 0, 60, Compute, 0)
	rep, err := Analyze(r.Records(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AttributionTotal() != 60 {
		t.Fatalf("attribution total %d", rep.AttributionTotal())
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
	r.Span(0, 0, 0, 50, Remote, 3)
	r.Pub(0, 0, 50, Handoff, 7, 0)
	r.Sub(1, 2, 80, Handoff, 7, LockWait)
	r.NoteMakespan(90)
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
	evs := []trace.Event{
		{T: 10, Node: 0, Kind: trace.EvClassTransition, Page: 5, Arg: trace.ClassNWtoSW},
		{T: 20, Node: 1, Kind: trace.EvInvalidate, Page: 5},
		{T: 30, Node: 1, Kind: trace.EvKeep, Page: 5},
		{T: 40, Node: 0, Kind: trace.EvReadMiss, Page: 5}, // not biographical
		{T: 50, Node: 0, Kind: trace.EvSIFence, Page: -1}, // no page
		{T: 15, Node: 2, Kind: trace.EvInvalidate, Page: 2},
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
