package directory

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"argo/internal/fabric"
	"argo/internal/sim"
)

func testFabric(nodes int) *fabric.Fabric {
	return fabric.MustNew(sim.Topology{Nodes: nodes, Sockets: 1, CoresPerSocket: 1}, fabric.DefaultParams())
}

func proc(node int) *sim.Proc { return &sim.Proc{Node: node} }

func TestBitmapBasics(t *testing.T) {
	var b Bitmap
	if !b.Empty() || b.Count() != 0 || b.First() != -1 {
		t.Fatal("zero bitmap not empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(127)
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4", b.Count())
	}
	for _, n := range []int{0, 63, 64, 127} {
		if !b.Has(n) {
			t.Fatalf("missing node %d", n)
		}
	}
	if b.Has(1) || b.Has(65) {
		t.Fatal("spurious bits")
	}
	if b.First() != 0 {
		t.Fatalf("First = %d, want 0", b.First())
	}
	b.unset(0)
	if b.First() != 63 {
		t.Fatalf("First = %d, want 63", b.First())
	}
	var only Bitmap
	only.Set(64)
	if !only.Only(64) || only.Only(63) {
		t.Fatal("Only misbehaves across words")
	}
	if got := only.String(); got != "{64}" {
		t.Fatalf("String = %q", got)
	}
}

func TestBitmapForEachOrder(t *testing.T) {
	var b Bitmap
	want := []int{2, 5, 63, 64, 100}
	for _, n := range want {
		b.Set(n)
	}
	var got []int
	b.ForEach(func(n int) { got = append(got, n) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestBitmapSetClearProperty(t *testing.T) {
	f := func(ns []uint8) bool {
		var b Bitmap
		seen := map[int]bool{}
		for _, n := range ns {
			id := int(n) % MaxNodes
			b.Set(id)
			seen[id] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		for id := range seen {
			if !b.Has(id) {
				return false
			}
			b.unset(id)
		}
		return b.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		readers, writers []int
		want             Classification
	}{
		{nil, nil, Unshared},
		{[]int{3}, nil, Private},
		{[]int{3}, []int{3}, Private}, // single reader stays private even when writing
		{[]int{0, 1}, nil, SharedNW},
		{[]int{0, 1}, []int{0}, SharedSW},
		{[]int{0, 1, 2}, []int{0, 2}, SharedMW},
	}
	for _, c := range cases {
		var e Entry
		for _, r := range c.readers {
			e.R.Set(r)
		}
		for _, w := range c.writers {
			e.W.Set(w)
		}
		if got := e.Classify(); got != c.want {
			t.Errorf("R=%v W=%v: classify = %v, want %v", c.readers, c.writers, got, c.want)
		}
	}
}

func TestRegisterReaderTransitions(t *testing.T) {
	fab := testFabric(4)
	d := New(fab, 8, func(p int) int { return p % 4 })

	old := d.RegisterReader(proc(0), 5, 0)
	if old.Classify() != Unshared {
		t.Fatalf("first reader saw %v, want Unshared", old.Classify())
	}
	if d.Home(5).Classify() != Private {
		t.Fatalf("after first reader: %v, want Private", d.Home(5).Classify())
	}

	old = d.RegisterReader(proc(1), 5, 1)
	if old.Classify() != Private || old.R.First() != 0 {
		t.Fatalf("second reader saw %v %v, want Private owned by 0", old.Classify(), old.R)
	}
	if d.Home(5).Classify() != SharedNW {
		t.Fatalf("after second reader: %v", d.Home(5).Classify())
	}
	// The registering node's own cache is refreshed as part of the op.
	if got := d.Cached(1, 5); got.R.Count() != 2 {
		t.Fatalf("own dircache not refreshed: %v", got.R)
	}
}

func TestRegisterWriterTransitions(t *testing.T) {
	fab := testFabric(4)
	d := New(fab, 8, func(p int) int { return 0 })
	d.RegisterReader(proc(0), 1, 0)
	d.RegisterReader(proc(1), 1, 1)

	old := d.RegisterWriter(proc(0), 1, 0)
	if !old.W.Empty() {
		t.Fatal("first writer should see empty writer map")
	}
	if d.Home(1).Classify() != SharedSW {
		t.Fatalf("after first writer: %v", d.Home(1).Classify())
	}
	old = d.RegisterWriter(proc(1), 1, 1)
	if old.W.Count() != 1 || old.W.First() != 0 {
		t.Fatalf("second writer saw writers %v, want {0}", old.W)
	}
	if d.Home(1).Classify() != SharedMW {
		t.Fatalf("after second writer: %v", d.Home(1).Classify())
	}
	// Writers are implicitly readers.
	if !d.Home(1).R.Has(0) || !d.Home(1).R.Has(1) {
		t.Fatal("writers not recorded as readers")
	}
}

func TestNotifyUpdatesVictimCache(t *testing.T) {
	fab := testFabric(4)
	d := New(fab, 8, func(p int) int { return 0 })
	d.RegisterReader(proc(0), 2, 0)
	// Node 0's view: private.
	if d.Cached(0, 2).Classify() != Private {
		t.Fatal("owner cache should say private")
	}
	d.RegisterReader(proc(1), 2, 1)
	// Without notification node 0 still believes P (deferred invalidation).
	if d.Cached(0, 2).Classify() != Private {
		t.Fatal("victim cache updated without notify")
	}
	d.Notify(proc(1), 2, 0)
	if d.Cached(0, 2).Classify() != SharedNW {
		t.Fatalf("after notify: %v", d.Cached(0, 2).Classify())
	}
	if n := fab.NodeStats(1).DirNotifies.Load(); n != 1 {
		t.Fatalf("notify count = %d, want 1", n)
	}
}

func TestNotifySelfIsFree(t *testing.T) {
	fab := testFabric(2)
	d := New(fab, 4, func(p int) int { return 0 })
	p := proc(1)
	before := p.Now()
	d.Notify(p, 0, 1) // target == own node
	if p.Now() != before {
		t.Fatal("self-notify charged time")
	}
}

func TestRegistrationChargesFabric(t *testing.T) {
	fab := testFabric(2)
	d := New(fab, 4, func(p int) int { return 1 })
	p := proc(0)
	d.RegisterReader(p, 0, 0)
	if p.Now() == 0 {
		t.Fatal("remote registration cost nothing")
	}
	if fab.NodeStats(0).DirOps.Load() != 1 {
		t.Fatal("dir op not counted")
	}
}

func TestReset(t *testing.T) {
	fab := testFabric(2)
	d := New(fab, 4, func(p int) int { return 0 })
	d.RegisterWriter(proc(0), 3, 0)
	d.RegisterWriter(proc(1), 3, 1)
	d.Reset()
	if d.Home(3).Classify() != Unshared {
		t.Fatal("reset did not clear home entry")
	}
	if !d.Cached(0, 3).R.Empty() || !d.Cached(1, 3).W.Empty() {
		t.Fatal("reset did not clear caches")
	}
}

// Property: classification is monotone — transitions only move forward
// through Unshared → Private → Shared and NW → SW → MW, never backwards,
// under any interleaving of registrations.
func TestClassificationMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fab := testFabric(8)
		d := New(fab, 1, func(int) int { return 0 })
		rank := func(c Classification) int { return int(c) }
		last := rank(Unshared)
		for i := 0; i < 100; i++ {
			node := rng.Intn(8)
			if rng.Intn(2) == 0 {
				d.RegisterReader(proc(node), 0, node)
			} else {
				d.RegisterWriter(proc(node), 0, node)
			}
			cur := rank(d.Home(0).Classify())
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent registrations must never lose a node: after the dust settles
// every registering node appears in the map.
func TestConcurrentRegistrationComplete(t *testing.T) {
	fab := testFabric(8)
	d := New(fab, 16, func(p int) int { return p % 8 })
	var wg sync.WaitGroup
	for node := 0; node < 8; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			p := proc(node)
			for pg := 0; pg < 16; pg++ {
				d.RegisterReader(p, pg, node)
				if node%2 == 0 {
					d.RegisterWriter(p, pg, node)
				}
			}
		}(node)
	}
	wg.Wait()
	for pg := 0; pg < 16; pg++ {
		e := d.Home(pg)
		if e.R.Count() != 8 {
			t.Fatalf("page %d readers = %v", pg, e.R)
		}
		if e.W.Count() != 4 {
			t.Fatalf("page %d writers = %v", pg, e.W)
		}
	}
}

func TestCachedManyMatchesCached(t *testing.T) {
	d := New(testFabric(4), 4096, func(pg int) int { return pg % 4 })
	p := proc(0)
	for pg := 0; pg < 4096; pg += 7 {
		d.RegisterReader(p, pg, 0)
		if pg%3 == 0 {
			d.RegisterWriter(p, pg, 1)
		}
	}
	// Mixed stripes, unsorted, with duplicates, unregistered pages, and a run
	// of consecutive pages that share one stripe (0, 1024, 2048: one lock
	// hold) between pages that do not.
	pages := []int{21, 0, 1024, 2048, 21, 1024, 7, 2048 + 21, 5, 14, 0}
	out := make([]Entry, len(pages))
	check := func(when string) {
		t.Helper()
		d.CachedMany(0, pages, out)
		for i, pg := range pages {
			if want := d.Cached(0, pg); out[i] != want {
				t.Fatalf("%s: CachedMany[%d] (page %d) = %+v, want %+v", when, i, pg, out[i], want)
			}
		}
	}
	check("all alive")
	// An excised writer is scrubbed from the batch exactly as Cached scrubs it.
	d.SetDead(1)
	d.CachedMany(0, pages, out)
	for i, pg := range pages {
		if out[i].W.Has(1) || out[i].R.Has(1) {
			t.Fatalf("CachedMany[%d] (page %d) still names the dead node: %+v", i, pg, out[i])
		}
	}
	check("node 1 dead")
	d.CachedMany(0, nil, nil) // empty is a no-op
	if a := testing.AllocsPerRun(100, func() { d.CachedMany(0, pages, out) }); a != 0 {
		t.Fatalf("CachedMany allocated %.1f times per call, want 0", a)
	}
}
