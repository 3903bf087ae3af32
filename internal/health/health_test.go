package health

import (
	"reflect"
	"strings"
	"testing"

	"argo/internal/fault"
	"argo/internal/sim"
)

func det(nodes int, seed int64) *Detector {
	return New(nodes, fault.Plan{Seed: seed})
}

// scripted builds a detector under a plan spelled as a spec.
func scripted(t *testing.T, nodes int, spec string) *Detector {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return New(nodes, plan)
}

// Scripted crash schedules are pure and survive Reset, so planners and the
// member barrier evaluate identical verdicts on every replay.
func TestScheduledCrashVerdicts(t *testing.T) {
	d := scripted(t, 4, "restartat=2@3,seed=1")
	if !d.Armed() {
		t.Fatal("a scripted crash does not arm the detector")
	}
	for _, c := range []struct {
		node int
		ep   int64
		want Fate
	}{{2, 2, Lives}, {2, 3, Restarts}, {1, 3, Lives}} {
		if got := d.Fate(c.node, c.ep); got != c.want {
			t.Fatalf("Fate(%d,%d) = %v, want %v", c.node, c.ep, got, c.want)
		}
	}
	d.Reset()
	if got := d.Fate(2, 3); got != Restarts {
		t.Fatalf("scripted crash lost across Reset: Fate(2,3) = %v", got)
	}
}

// CutAt returns the full partition shape: the parked minority for a
// symmetric cut, the source alone — with the directed link — for a one-way
// cut, and the zero Cut outside every window.
func TestCutAtScriptedShapes(t *testing.T) {
	d := scripted(t, 5, "cutat=3.1@2:2+4>0@5:1,seed=1")

	if c := d.CutAt(1); c.Iso != nil || c.OneWay {
		t.Fatalf("CutAt(1) = %+v, want whole fabric", c)
	}
	for ep := int64(2); ep <= 3; ep++ {
		c := d.CutAt(ep)
		if !reflect.DeepEqual(c.Iso, []int{1, 3}) || c.OneWay {
			t.Fatalf("CutAt(%d) = %+v, want symmetric {1,3}", ep, c)
		}
	}
	if c := d.CutAt(4); c.Iso != nil {
		t.Fatalf("CutAt(4) = %+v, want whole fabric between windows", c)
	}
	c := d.CutAt(5)
	if !c.OneWay || c.From != 4 || c.To != 0 || !reflect.DeepEqual(c.Iso, []int{4}) {
		t.Fatalf("CutAt(5) = %+v, want one-way 4>0 parking {4}", c)
	}
	if d.Fate(4, 5) != Parked || d.Fate(0, 5) != Lives {
		t.Fatal("one-way cut must isolate the source, never the target")
	}
	d.Reset()
	if c := d.CutAt(5); !c.OneWay {
		t.Fatal("scripted one-way cut lost across Reset")
	}
}

// A one-way plan (partcut=a>b) flows through the hash-drawn schedule: every
// window parks exactly the source node and carries the directed link.
func TestCutAtOneWayPlan(t *testing.T) {
	plan := fault.Plan{Seed: 7}
	plan.Partition = 0.4
	plan.PartitionDur = 2
	plan.PartitionOneWay = true
	plan.PartitionFrom, plan.PartitionTo = 2, 0
	d := New(4, plan)
	hits := 0
	for ep := int64(1); ep <= 64; ep++ {
		c := d.CutAt(ep)
		if c.Iso == nil {
			continue
		}
		hits++
		if !c.OneWay || c.From != 2 || c.To != 0 || !reflect.DeepEqual(c.Iso, []int{2}) {
			t.Fatalf("CutAt(%d) = %+v, want one-way 2>0 parking {2}", ep, c)
		}
	}
	if hits == 0 {
		t.Fatal("one-way plan opened no windows in 64 episodes (rate too low)")
	}
}

// Kill is idempotent per (node, episode) — only the first caller wins the
// wipe — and Suspect leaves the epoch and live count alone, so a heal never
// looks like a membership change.
func TestTransitionLifecycle(t *testing.T) {
	d := det(3, 1)
	if !d.Kill(1, 100, 2, 0) {
		t.Fatal("first Kill lost the wipe race with nobody else running")
	}
	if d.Kill(1, 100, 2, 0) {
		t.Fatal("second Kill of the same (node, episode) won the wipe again")
	}
	if d.Alive(1) || d.LiveCount() != 2 {
		t.Fatalf("kill not reflected: alive=%v live=%d", d.Alive(1), d.LiveCount())
	}
	if d.Epoch() != 0 {
		t.Fatal("Kill bumped the epoch before the barrier's excise decision")
	}
	d.Excise(1, 200, 2)
	if d.Epoch() != 1 {
		t.Fatalf("epoch %d after excise, want 1", d.Epoch())
	}
	d.Rejoin(1, 300, 2)
	if d.Epoch() != 2 || !d.Alive(1) || d.LiveCount() != 3 {
		t.Fatalf("rejoin not reflected: epoch=%d alive=%v live=%d",
			d.Epoch(), d.Alive(1), d.LiveCount())
	}

	d.Suspect(2, 400, 3)
	if d.Epoch() != 2 || d.LiveCount() != 3 {
		t.Fatalf("Suspect changed membership: epoch=%d live=%d", d.Epoch(), d.LiveCount())
	}
	d.Suspect(2, 410, 3) // idempotent while partitioned
	d.Heal(2, 500, 4)
	if d.Epoch() != 3 {
		t.Fatalf("epoch %d after heal, want 3", d.Epoch())
	}
	d.Heal(2, 510, 4) // no-op on a healthy node

	h := d.HistoryString()
	for _, want := range []string{"crash(n1)", "excise(n1)", "rejoin(n1)", "suspect(n2)", "heal(n2)"} {
		if strings.Count(h, want) != 1 {
			t.Fatalf("history records %q %d times, want once: %q", want, strings.Count(h, want), h)
		}
	}
	// The decision form drops timestamps but keeps every decision, in order.
	dec := d.DecisionHistoryString()
	if strings.Contains(dec, "/t") {
		t.Fatalf("decision history carries timestamps: %q", dec)
	}
	if strings.Count(dec, "(") != strings.Count(h, "(") {
		t.Fatalf("decision history dropped transitions:\n  full %q\n  decision %q", h, dec)
	}
}

// Two crashes of one episode are recorded by whichever node's thread reaches
// the safe point first on the host; both renderings must come out the same
// whichever way round that was, while the excisions that follow — each on its
// own epoch — keep the order the barrier gave them.
func TestHistoryRenderingIgnoresRecordingOrderOfConcurrentCrashes(t *testing.T) {
	render := func(first, second int) (string, string) {
		d := det(5, 1)
		d.Kill(first, sim.Time(100+first), 2, 0) // LU's crash times differ by NIC jitter
		d.Kill(second, sim.Time(100+second), 2, 0)
		d.Excise(4, 200, 2)
		d.Excise(1, 200, 2)
		d.Kill(3, 300, 5, 0)
		return d.HistoryString(), d.DecisionHistoryString()
	}
	h1, d1 := render(1, 4)
	h2, d2 := render(4, 1)
	if h1 != h2 || d1 != d2 {
		t.Fatalf("rendering depends on recording order:\n  %q\n  %q\n  %q\n  %q", h1, h2, d1, d2)
	}
	if want := "ep0:crash(n1)@e2 ep0:crash(n4)@e2 ep1:excise(n4)@e2 ep2:excise(n1)@e2 ep2:crash(n3)@e5"; d1 != want {
		t.Fatalf("decision history %q, want %q", d1, want)
	}
}

// Fate is the one place the verdicts combine: crash wins over isolation, and
// a restart is told apart from a stop.
func TestFateCrashWinsOverIsolation(t *testing.T) {
	d := scripted(t, 5, "cutat=1.2.3@2:1,crashat=2@2,restartat=3@2+4@2,seed=1")
	for n, want := range []Fate{Lives, Parked, Stops, Restarts, Restarts} {
		if got := d.Fate(n, 2); got != want {
			t.Errorf("Fate(%d, 2) = %v, want %v", n, got, want)
		}
		if got := d.Fate(n, 3); got != Lives {
			t.Errorf("Fate(%d, 3) = %v, want Lives", n, got)
		}
	}
}

// A walk holds the membership the barrier will: a restart keeps its slot, a
// stop leaves at its death episode, a cut removes nobody — and a window
// stays a window when the node it isolates is already gone.
func TestWalkMembership(t *testing.T) {
	d := scripted(t, 4, "restartat=1@1,crashat=3@2,cutat=3@2:3,seed=1") // the cut spans episodes 2-4; node 3 dies at the first

	w := d.NewWalk()
	all := []int{0, 1, 2, 3}
	if w.Episode() != 0 || !reflect.DeepEqual(w.Members(), all) || w.InWindow() {
		t.Fatalf("fresh walk: episode %d, members %v, in window %v", w.Episode(), w.Members(), w.InWindow())
	}
	if died, left := w.Step(); !reflect.DeepEqual(died, []int{1}) || left != nil || !reflect.DeepEqual(w.Members(), all) {
		t.Fatalf("episode 1: died %v left %v members %v, want the restart to keep its slot", died, left, w.Members())
	}
	if !w.InWindow() || !reflect.DeepEqual(w.Parked(), []int{3}) {
		t.Fatalf("before episode 2: in window %v, parked %v", w.InWindow(), w.Parked())
	}
	before := w.Members()
	if died, left := w.Step(); !reflect.DeepEqual(died, []int{3}) || !reflect.DeepEqual(left, []int{3}) {
		t.Fatalf("episode 2: died %v left %v, want node 3 to stop inside its own cut", died, left)
	}
	if !reflect.DeepEqual(w.Members(), []int{0, 1, 2}) || !reflect.DeepEqual(before, all) {
		t.Fatalf("after episode 2: members %v, earlier view %v (must not be edited)", w.Members(), before)
	}
	if !w.InWindow() || w.Parked() != nil {
		t.Fatalf("before episode 3: in window %v, parked %v, want a window that parks no member", w.InWindow(), w.Parked())
	}
	w.Step()
	w.Step()
	if w.Episode() != 4 || w.InWindow() {
		t.Fatalf("episode %d, in window %v, want the window closed after 4", w.Episode(), w.InWindow())
	}
}
