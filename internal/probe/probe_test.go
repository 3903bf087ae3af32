package probe

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"argo/internal/sim"
)

func TestKindNamesCompleteAndUnique(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d are both named %q", prev, k, name)
		}
		seen[name] = k
	}
	if !strings.HasPrefix(NumKinds.String(), "Kind(") {
		t.Fatalf("an undeclared kind prints %q", NumKinds)
	}
	if !ReadMiss.Paged() || !Evict.Paged() || SIFence.Paged() || RunEnd.Paged() {
		t.Fatal("Paged does not separate the page kinds from the rest")
	}
}

func TestTidRoundTrip(t *testing.T) {
	for _, c := range []struct{ socket, core int }{{0, 0}, {1, 2}, {3, 0}, {7, 65535}} {
		if s, co := DecodeTid(TidOf(c.socket, c.core)); s != c.socket || co != c.core {
			t.Fatalf("TidOf(%d,%d) round-trips to (%d,%d)", c.socket, c.core, s, co)
		}
	}
}

// list is a sink keeping what it is handed.
type list struct{ ev []Event }

func (l *list) Observe(e Event) { l.ev = append(l.ev, e) }

func TestSpineFansOutAndIsNilWhenEmpty(t *testing.T) {
	if NewSpine(nil) != nil || NewSpine([]Sink{}) != nil {
		t.Fatal("a spine over no sinks must be nil: that is the detached state sites check for")
	}
	var a, b list
	s := NewSpine([]Sink{&a, &b})
	p := &sim.Proc{Node: 2, Socket: 1, Core: 3}
	p.Advance(100)
	s.Page(p, ReadMiss, 7, 1)
	s.Since(p, 40, SIFence, 5, 6)
	s.Sync(p, 100, TicketRelease, 9, 0, 0)
	want := []Event{
		{Kind: ReadMiss, Node: 2, Tid: TidOf(1, 3), Start: 100, T: 100, Page: 7, Arg: 1},
		{Kind: SIFence, Node: 2, Tid: TidOf(1, 3), Start: 40, T: 100, Arg: 5, Aux: 6},
		{Kind: TicketRelease, Node: 2, Tid: TidOf(1, 3), Start: 100, T: 100, Key: 9},
	}
	if !slices.Equal(a.ev, want) || !slices.Equal(b.ev, want) {
		t.Fatalf("sinks heard\n%+v\n%+v\nwant\n%+v", a.ev, b.ev, want)
	}
	if want[0].Dur() != 0 || want[1].Dur() != 60 {
		t.Fatalf("durations %d, %d, want 0, 60", want[0].Dur(), want[1].Dur())
	}
}

// An emission site costs a nil check when nothing is attached, and with sinks
// attached the event travels by value: neither allocates.
func TestEmitAllocatesNothing(t *testing.T) {
	p := &sim.Proc{Node: 1}
	var detached *Spine
	var n countSink
	attached := NewSpine([]Sink{&n})
	for name, s := range map[string]*Spine{"detached": detached, "attached": attached} {
		if got := testing.AllocsPerRun(100, func() {
			s.Page(p, ReadMiss, 3, 0)
			s.Since(p, 0, SDFence, 1, 2)
			s.Sync(p, 0, LockAcquire, 4, 0, 0)
		}); got != 0 {
			t.Errorf("%s: %v allocations per three emissions, want 0", name, got)
		}
	}
	if n == 0 {
		t.Fatal("the attached sink heard nothing")
	}
}

type countSink int

func (c *countSink) Observe(Event) { *c++ }

func TestLanesLimitDropsAndReset(t *testing.T) {
	var none *Lanes[Event]
	none.Append(0, Event{})
	none.Reset()
	if none.Sorted() != nil || none.Len() != 0 || none.Dropped() != 0 {
		t.Fatal("a nil buffer must hold nothing")
	}
	b := NewLanes[Event](2)
	for i := 0; i < 5; i++ {
		b.Append(0, Event{T: int64(i)})
	}
	b.Append(1, Event{T: 9})
	if b.Len() != 3 || b.Dropped() != 3 {
		t.Fatalf("len %d dropped %d, want 3 and 3 (the limit is per node)", b.Len(), b.Dropped())
	}
	n := 0
	b.Each(func(Event) { n++ })
	if n != 3 {
		t.Fatalf("Each visited %d records, want 3", n)
	}
	b.Reset()
	if b.Len() != 0 || b.Dropped() != 0 || b.Sorted() != nil {
		t.Fatal("reset incomplete")
	}
}

func TestLanesConcurrentAppend(t *testing.T) {
	b := NewLanes[Event](1 << 20)
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Append(n%3, Event{T: int64(i), Node: n % 3, Tid: n})
			}
		}(n)
	}
	wg.Wait()
	if got := len(b.Sorted()); got != 1600 || b.Len() != 1600 {
		t.Fatalf("%d records, want 1600", got)
	}
}

// The canonical order is total up to records equal in every field: any
// permutation of a multiset sorts to the same slice.
func TestSortIsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var evs []Event
	for i := 0; i < 400; i++ { // few distinct values per field: ties everywhere
		evs = append(evs, Event{
			Kind: Kind(rng.Intn(3)), Node: rng.Intn(2), Tid: rng.Intn(2), Start: int64(rng.Intn(2)), T: int64(rng.Intn(3)),
			Page: rng.Intn(2), Key: uint64(rng.Intn(2)), Arg: int64(rng.Intn(2)), Aux: int64(rng.Intn(2)),
		})
	}
	want := slices.Clone(evs)
	Sort(want)
	for i := 1; i < len(want); i++ {
		if want[i].T < want[i-1].T {
			t.Fatalf("not ordered by time at %d", i)
		}
	}
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		got := slices.Clone(evs)
		Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: a permutation sorted differently", trial)
		}
	}
}
