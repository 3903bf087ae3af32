package directory

import (
	"math/rand"
	"sync"
	"testing"
)

// denseDir is the dense directory this package had before its storage went
// on demand — a full []Entry for home truth and one per node, scrubbed
// lazily in place — kept as the reference the sparse one must match call for
// call, lazy scrubbing and restart leftovers included.
type denseDir struct {
	entries []Entry
	caches  [][]Entry
	dead    Bitmap
}

func newDense(nodes, npages int) *denseDir {
	d := &denseDir{entries: make([]Entry, npages), caches: make([][]Entry, nodes)}
	for n := range d.caches {
		d.caches[n] = make([]Entry, npages)
	}
	return d
}

func (d *denseDir) scrub(e *Entry) {
	e.R.andNot(d.dead)
	e.W.andNot(d.dead)
}

func (d *denseDir) register(page, node int, write bool) Entry {
	d.scrub(&d.entries[page])
	old := d.entries[page]
	d.entries[page].R.Set(node)
	if write {
		d.entries[page].W.Set(node)
	}
	d.caches[node][page] = d.entries[page]
	return old
}

func (d *denseDir) notify(page, target int) { d.caches[target][page] = d.entries[page] }

func (d *denseDir) cached(node, page int) Entry {
	d.scrub(&d.caches[node][page])
	return d.caches[node][page]
}

func (d *denseDir) home(page int) Entry {
	d.scrub(&d.entries[page])
	return d.entries[page]
}

func (d *denseDir) clearCache(node int) { clear(d.caches[node]) }

func (d *denseDir) reset() {
	clear(d.entries)
	for n := range d.caches {
		clear(d.caches[n])
	}
}

// A seeded random walk over every mutating and reading entry point, on page
// counts below, at and around the chunk length and on 1 to 128 nodes: the
// sparse directory answers exactly as the dense one, and materialises chunks
// only for pages somebody registered on or was notified of.
func TestMatchesDenseDirectory(t *testing.T) {
	for _, g := range []struct{ nodes, npages int }{
		{1, 1}, {2, 3}, {3, 63}, {4, 64}, {4, 65}, {5, 200}, {128, 130}, {128, 1000},
	} {
		rng := rand.New(rand.NewSource(int64(g.nodes*100003 + g.npages)))
		d := New(testFabric(g.nodes), g.npages, func(pg int) int { return pg % g.nodes })
		ref := newDense(g.nodes, g.npages)
		touched := map[[2]int]bool{} // {array (-1 home, else node), chunk}
		touch := func(arr, page int) { touched[[2]int{arr, page / 64}] = true }
		for step := 0; step < 4000; step++ {
			page, node := rng.Intn(g.npages), rng.Intn(g.nodes)
			switch op := rng.Intn(100); {
			case op < 25:
				var got Entry
				if rng.Intn(2) == 0 {
					got = d.RegisterReader(proc(node), page, node)
				} else {
					got = d.RegisterReaderBatched(page, node)
				}
				if want := ref.register(page, node, false); got != want {
					t.Fatalf("%+v step %d: RegisterReader(%d, %d) = %+v, want %+v", g, step, page, node, got, want)
				}
				touch(-1, page)
				touch(node, page)
			case op < 40:
				got := d.RegisterWriter(proc(node), page, node)
				if want := ref.register(page, node, true); got != want {
					t.Fatalf("%+v step %d: RegisterWriter(%d, %d) = %+v, want %+v", g, step, page, node, got, want)
				}
				touch(-1, page)
				touch(node, page)
			case op < 50:
				from := rng.Intn(g.nodes)
				d.Notify(proc(from), page, node)
				if from != node {
					ref.notify(page, node)
					touch(-1, page)
					touch(node, page)
				}
			case op < 70:
				if got, want := d.Cached(node, page), ref.cached(node, page); got != want {
					t.Fatalf("%+v step %d: Cached(%d, %d) = %+v, want %+v", g, step, node, page, got, want)
				}
			case op < 80:
				if got, want := d.Home(page), ref.home(page); got != want {
					t.Fatalf("%+v step %d: Home(%d) = %+v, want %+v", g, step, page, got, want)
				}
			case op < 88:
				pages := make([]int, rng.Intn(40))
				for i := range pages {
					pages[i] = rng.Intn(g.npages)
				}
				out := make([]Entry, len(pages))
				d.CachedMany(node, pages, out)
				for i, pg := range pages {
					if want := ref.cached(node, pg); out[i] != want {
						t.Fatalf("%+v step %d: CachedMany(%d)[%d] (page %d) = %+v, want %+v", g, step, node, i, pg, out[i], want)
					}
				}
			case op < 92:
				d.SetDead(node)
				ref.dead.Set(node)
			case op < 95:
				d.ClearDeadBit(node)
				ref.dead.unset(node)
			case op < 97:
				d.ClearCache(node)
				ref.clearCache(node)
			case op < 98:
				d.ClearDead()
				ref.dead = Bitmap{}
			default:
				d.Reset()
				ref.reset()
			}
		}
		for node := 0; node < g.nodes; node++ {
			for page := 0; page < g.npages; page++ {
				if got, want := d.Cached(node, page), ref.cached(node, page); got != want {
					t.Fatalf("%+v final: Cached(%d, %d) = %+v, want %+v", g, node, page, got, want)
				}
			}
		}
		for page := 0; page < g.npages; page++ {
			if got, want := d.Home(page), ref.home(page); got != want {
				t.Fatalf("%+v final: Home(%d) = %+v, want %+v", g, page, got, want)
			}
		}
		// Lookups materialised nothing: the chunks that exist are the ones
		// registrations and notifications touched.
		for node := 0; node < g.nodes; node++ {
			wantHome, wantCached := 0, 0
			for k := range touched {
				switch k[0] {
				case -1:
					wantHome++
				case node:
					wantCached++
				}
			}
			if home, cached := d.Chunks(node); home != wantHome || cached != wantCached {
				t.Fatalf("%+v node %d: %d home and %d cached chunks exist, want %d and %d", g, node, home, cached, wantHome, wantCached)
			}
		}
	}
}

// Nodes first-touch the same and neighbouring pages of a fresh directory at
// once while others look them up. Run under -race.
func TestConcurrentFirstRegistration(t *testing.T) {
	const nodes, npages = 8, 200
	for round := 0; round < 20; round++ {
		d := New(testFabric(nodes), npages, func(pg int) int { return pg % nodes })
		var wg sync.WaitGroup
		for n := 0; n < nodes; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]Entry, 3)
				for pg := 60; pg < 70; pg++ {
					d.RegisterReaderBatched(pg, n)
					d.CachedMany((n+1)%nodes, []int{pg, 0, 199}, out)
					if e := d.Cached(n, pg); !e.R.Has(n) {
						t.Errorf("node %d lost its own registration on page %d: %+v", n, pg, e)
					}
				}
			}()
		}
		wg.Wait()
		for pg := 60; pg < 70; pg++ {
			if got := d.Home(pg).R.Count(); got != nodes {
				t.Fatalf("round %d: page %d has %d readers, want %d", round, pg, got, nodes)
			}
		}
		if home, cached := d.Chunks(0); home != 2 || cached != 2 {
			t.Fatalf("round %d: %d home and %d cached chunks, want 2 and 2", round, home, cached)
		}
	}
}
