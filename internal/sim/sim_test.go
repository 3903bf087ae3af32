package sim

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestProcAdvance(t *testing.T) {
	p := &Proc{}
	if p.Now() != 0 {
		t.Fatalf("new proc clock = %d, want 0", p.Now())
	}
	p.Advance(10)
	p.Advance(5)
	if p.Now() != 15 {
		t.Fatalf("clock = %d, want 15", p.Now())
	}
	p.AdvanceTo(12) // earlier: no-op
	if p.Now() != 15 {
		t.Fatalf("AdvanceTo backwards moved clock to %d", p.Now())
	}
	p.AdvanceTo(20)
	if p.Now() != 20 {
		t.Fatalf("AdvanceTo = %d, want 20", p.Now())
	}
}

func TestProcNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	(&Proc{}).Advance(-1)
}

func TestTopologyPlacement(t *testing.T) {
	topo := Topology{Nodes: 2, Sockets: 4, CoresPerSocket: 4}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := topo.coresPerNode(); got != 16 {
		t.Fatalf("coresPerNode = %d, want 16", got)
	}
	// Compact placement: threads 0..3 socket 0, 4..7 socket 1, ...
	for lt := 0; lt < 16; lt++ {
		p := topo.NewProc(1, lt)
		if p.Node != 1 {
			t.Fatalf("thread %d on node %d", lt, p.Node)
		}
		if want := lt / 4; p.Socket != want {
			t.Fatalf("thread %d socket = %d, want %d", lt, p.Socket, want)
		}
		if want := lt % 4; p.Core != want {
			t.Fatalf("thread %d core = %d, want %d", lt, p.Core, want)
		}
	}
	// Oversubscription wraps around.
	if p := topo.NewProc(0, 17); p.Socket != 0 || p.Core != 1 {
		t.Fatalf("oversubscribed thread placed at socket %d core %d", p.Socket, p.Core)
	}
}

func TestTopologyValidateRejects(t *testing.T) {
	bad := []Topology{
		{Nodes: 0, Sockets: 1, CoresPerSocket: 1},
		{Nodes: 1, Sockets: 0, CoresPerSocket: 1},
		{Nodes: 1, Sockets: 1, CoresPerSocket: 0},
		{Nodes: 129, Sockets: 1, CoresPerSocket: 1},
	}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("topology %+v validated, want error", topo)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	a, b := &Proc{}, &Proc{}
	// Saturation from time zero: requests queue back to back.
	done := r.Occupy(a, 50)
	if done != 50 || a.Now() != 50 {
		t.Fatalf("first occupant done at %d (clock %d), want 50", done, a.Now())
	}
	done = r.Occupy(b, 10)
	if done != 60 || b.Now() != 60 {
		t.Fatalf("queued occupant done at %d (clock %d), want 60", done, b.Now())
	}
	// A later arrival after the horizon pays only service.
	c := &Proc{}
	c.Advance(1000)
	if done = r.Occupy(c, 5); done != 1005 {
		t.Fatalf("idle-resource occupant done at %d, want 1005", done)
	}
}

func TestResourceBackfill(t *testing.T) {
	var r Resource
	late := &Proc{}
	late.Advance(1000)
	r.Occupy(late, 50) // horizon 1050, slack 1000

	// A request with an earlier clock must not queue behind the future:
	// it is backfilled into the idle capacity before the horizon.
	early := &Proc{}
	early.Advance(100)
	if done := r.Occupy(early, 30); done != 130 {
		t.Fatalf("early request done at %d, want 130 (backfilled)", done)
	}
	// Exhausting the slack restores genuine queueing.
	hog := &Proc{}
	if done := r.Occupy(hog, 2000); done != 1050+2000-970 {
		t.Fatalf("saturating request done at %d, want %d", done, 1050+2000-970)
	}
	next := &Proc{}
	if done := r.Occupy(next, 10); done != 2090 {
		t.Fatalf("post-saturation request done at %d, want 2090", done)
	}
}

func TestResourceOccupyAt(t *testing.T) {
	var r Resource
	p := &Proc{}
	p.Advance(10)
	// Request arrives at 100 although the proc issued it at 10.
	if done := r.OccupyAt(p, 100, 20); done != 120 {
		t.Fatalf("OccupyAt done = %d, want 120", done)
	}
	if p.Now() != 120 {
		t.Fatalf("proc clock = %d, want 120", p.Now())
	}
}

// Property: a resource serializes any set of concurrent occupants — total
// busy time equals the sum of service times, regardless of interleaving.
func TestResourceSerializationProperty(t *testing.T) {
	f := func(services []uint8) bool {
		if len(services) == 0 {
			return true
		}
		var r Resource
		var wg sync.WaitGroup
		var total Time
		for _, s := range services {
			total += Time(s)
		}
		wg.Add(len(services))
		for _, s := range services {
			go func(s Time) {
				defer wg.Done()
				r.Occupy(&Proc{}, s)
			}(Time(s))
		}
		wg.Wait()
		return r.FreeAt() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierMaxCombines(t *testing.T) {
	b := NewBarrier(3)
	procs := []*Proc{{}, {}, {}}
	procs[0].Advance(10)
	procs[1].Advance(70)
	procs[2].Advance(30)
	var wg sync.WaitGroup
	wg.Add(3)
	for _, p := range procs {
		go func(p *Proc) {
			defer wg.Done()
			b.Wait(p, 5)
		}(p)
	}
	wg.Wait()
	for i, p := range procs {
		if p.Now() != 75 {
			t.Fatalf("proc %d clock = %d, want 75", i, p.Now())
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	b := NewBarrier(2)
	p1, p2 := &Proc{}, &Proc{}
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); p1.Advance(10); b.Wait(p1, 0) }()
		go func() { defer wg.Done(); p2.Advance(20); b.Wait(p2, 0) }()
		wg.Wait()
		if p1.Now() != p2.Now() {
			t.Fatalf("round %d: clocks diverge %d vs %d", round, p1.Now(), p2.Now())
		}
	}
	if p1.Now() != 100 {
		t.Fatalf("after 5 rounds clock = %d, want 100", p1.Now())
	}
}

func TestGroupRunMakespan(t *testing.T) {
	procs := []*Proc{{}, {}, {}, {}}
	g := NewGroup(procs)
	makespan := g.Run(func(i int, p *Proc) {
		p.Advance(Time(i) * 100)
	})
	if makespan != 300 {
		t.Fatalf("makespan = %d, want 300", makespan)
	}
	if g.MaxNow() != 300 {
		t.Fatalf("MaxNow = %d, want 300", g.MaxNow())
	}
}
