// Package directory implements Pyxis, Argo's passive classification
// directory. For every global page the home node keeps two full-maps — the
// readers and the writers of the page. There is no explicit page state and
// no message handler: requesting nodes deposit their ID with a remote atomic
// fetch-and-or (which returns both maps), infer the classification
// themselves, and, when they cause a classification transition
// (P→S, NW→SW, SW→MW), remotely update the *directory cache* of the one
// node (or set of reader nodes) that must eventually notice. The notified
// node observes the change passively, at its next synchronization point or
// its next request — deferred invalidation, valid under DRF semantics.
//
// In the simulator the home-truth entry and all per-node cached copies of it
// share one striped lock per page; the causing node updates the victim's
// cached copy inside the same critical section as its own registration,
// which yields exactly the ordering argument of the paper (the notification
// is visible before the notifier can issue any subsequent data operation).
package directory

import (
	"fmt"
	"sync"
	"sync/atomic"

	"argo/internal/fabric"
	"argo/internal/sim"
	"argo/internal/sparse"
)

// Entry is one directory entry: the readers and writers full-maps of a page.
type Entry struct {
	R Bitmap // nodes that fetched the page since the last reset
	W Bitmap // nodes that wrote the page since the last reset
}

// Classification is the page state a node infers from a directory entry.
// The directory itself never stores it (Pyxis is state-free).
type Classification int

const (
	// Unshared: nobody has registered (uninitialized page).
	Unshared Classification = iota
	// Private: exactly one reader node.
	Private
	// SharedNW: multiple readers, no writers.
	SharedNW
	// SharedSW: multiple readers, a single writer.
	SharedSW
	// SharedMW: multiple readers, multiple writers.
	SharedMW
)

func (c Classification) String() string {
	switch c {
	case Unshared:
		return "—"
	case Private:
		return "P"
	case SharedNW:
		return "S,NW"
	case SharedSW:
		return "S,SW"
	case SharedMW:
		return "S,MW"
	default:
		return fmt.Sprintf("Classification(%d)", int(c))
	}
}

// Classify derives the classification from an entry.
func (e Entry) Classify() Classification {
	switch {
	case e.R.Empty():
		return Unshared
	case e.R.Count() == 1:
		return Private
	case e.W.Empty():
		return SharedNW
	case e.W.Count() == 1:
		return SharedSW
	default:
		return SharedMW
	}
}

const stripeCount = 1024

// Directory is the Pyxis instance of one cluster: home-truth entries for
// every global page plus each node's passive directory cache. Both exist
// only for pages somebody has registered on (or been notified of); an entry
// that does not exist yet reads as the zero Entry, which is what it would hold.
type Directory struct {
	fab    *fabric.Fabric
	npages int
	homeOf func(page int) int

	stripes [stripeCount]sync.Mutex
	entries sparse.Array[Entry]   // home truth, indexed by global page
	caches  []sparse.Array[Entry] // [node][page] cached copies

	// Cygnus dead-node mask: bits of excised members, cleared lazily from
	// the full-maps at classification lookups instead of by an eager sweep
	// of every page. hasDead gates the hot paths with one atomic load;
	// dead itself is only read/written under a stripe lock (SetDead takes
	// all stripes, so any single stripe suffices for readers).
	hasDead atomic.Bool
	dead    Bitmap
}

// New creates a directory for npages pages whose homes are given by homeOf.
func New(fab *fabric.Fabric, npages int, homeOf func(int) int) *Directory {
	if fab.Topo.Nodes > MaxNodes {
		panic(fmt.Sprintf("directory: at most %d nodes supported, got %d", MaxNodes, fab.Topo.Nodes))
	}
	d := &Directory{
		fab:     fab,
		npages:  npages,
		homeOf:  homeOf,
		entries: sparse.Make(npages, entryPool, nil),
		caches:  make([]sparse.Array[Entry], fab.Topo.Nodes),
	}
	for n := range d.caches {
		d.caches[n] = sparse.Make(npages, entryPool, nil)
	}
	return d
}

// entryPool recycles the chunks of every directory's home-truth and cached
// entries from a closed cluster to the next (Free). A zeroed Entry is a fresh
// one.
var entryPool = sparse.NewPool[Entry](nil)

// Free hands the home-truth and every node's cached entries to the next
// cluster's directory. The caller guarantees that nothing uses the directory
// any more (core.Cluster.Close); afterwards every entry reads as never
// registered.
func (d *Directory) Free() {
	d.entries.Free()
	for n := range d.caches {
		d.caches[n].Free()
	}
}

func (d *Directory) lock(page int) *sync.Mutex { return &d.stripes[page%stripeCount] }

// RegisterReader deposits node's ID in page's readers map with one remote
// fetch-and-or, refreshes node's cached copy, and returns the entry as it
// was *before* the update — the caller detects transitions from it.
func (d *Directory) RegisterReader(p *sim.Proc, page, node int) Entry {
	return d.register(p, page, node, false)
}

// RegisterReaderBatched is RegisterReader without the network charge: when
// a line fetch registers several consecutive pages that share a home node,
// the registrations travel as one batched one-sided operation and only the
// first page of each home pays the round trip.
func (d *Directory) RegisterReaderBatched(page, node int) Entry {
	return d.register(nil, page, node, false)
}

// scrubLocked lazily clears excised nodes' bits from e, an entry of a page
// whose stripe lock the caller holds. This is Cygnus's lazy full-map repair:
// dead bits rot in place and are erased the next time the page's
// classification is consulted, so excision costs nothing on pages nobody
// touches again.
func (d *Directory) scrubLocked(e *Entry) {
	if d.hasDead.Load() {
		e.R.andNot(d.dead)
		e.W.andNot(d.dead)
	}
}

// register is the one body behind the three Register methods, which inline
// into their callers: charge the fetch-and-or to p (nil: it travels in a batch
// somebody else pays for), deposit node in page's readers map, and in its
// writers map too when write is set, refresh node's cached copy and return the
// prior entry.
func (d *Directory) register(p *sim.Proc, page, node int, write bool) Entry {
	if p != nil {
		d.fab.RemoteAtomic(p, d.homeOf(page), uint64(page))
	}
	mu := d.lock(page)
	mu.Lock()
	e := d.entries.Peek(page)
	if e == nil {
		e = d.entries.At(page)
	}
	d.scrubLocked(e)
	old := *e
	e.R.Set(node)
	if write {
		e.W.Set(node)
	}
	ce := d.caches[node].Peek(page)
	if ce == nil {
		ce = d.caches[node].At(page)
	}
	*ce = *e
	mu.Unlock()
	return old
}

// RegisterWriter deposits node's ID in page's writers map (and readers map,
// since a writer always holds a copy), refreshes node's cached copy, and
// returns the prior entry.
func (d *Directory) RegisterWriter(p *sim.Proc, page, node int) Entry {
	return d.register(p, page, node, true)
}

// Notify remotely updates target's cached copy of page's entry with the
// current home truth. This is the passive notification used for P→S, NW→SW
// and SW→MW transitions; it costs one small RDMA write.
func (d *Directory) Notify(p *sim.Proc, page, target int) {
	if target == p.Node {
		// Own cache was already refreshed by the registration.
		return
	}
	d.fab.RemoteWrite(p, target, 16, uint64(page))
	d.fab.NodeStats(p.Node).DirNotifies.Add(1)
	mu := d.lock(page)
	mu.Lock()
	*d.caches[target].At(page) = *d.entries.At(page)
	mu.Unlock()
}

// Cached returns node's current cached copy of page's entry. Reading the
// local directory cache costs nothing on the network.
func (d *Directory) Cached(node, page int) Entry {
	return d.lookup(&d.caches[node], page)
}

// lookup returns the scrubbed value of page's entry in a, or the zero Entry —
// without taking the stripe lock — if nobody has touched its chunk: a lookup
// that finds nothing is one that ran before the first registration.
func (d *Directory) lookup(a *sparse.Array[Entry], page int) Entry {
	e := a.Peek(page)
	if e == nil {
		return Entry{}
	}
	mu := d.lock(page)
	mu.Lock()
	d.scrubLocked(e)
	v := *e
	mu.Unlock()
	return v
}

// CachedMany fills out[i] with node's cached entry of pages[i], in input
// order, holding a stripe lock across every run of consecutive pages that
// share it instead of releasing and retaking it per page. Fence sweeps use it
// to batch their classification lookups. It allocates nothing. out must be at
// least len(pages) long; duplicate pages are allowed.
func (d *Directory) CachedMany(node int, pages []int, out []Entry) {
	// A copy, which shares the chunks: its fields stay in registers across
	// the stores to out.
	cached := d.caches[node]
	scrub := d.hasDead.Load()
	var mu *sync.Mutex
	for i, pg := range pages {
		e := cached.Peek(pg)
		if e == nil {
			out[i] = Entry{}
			continue
		}
		if m := d.lock(pg); m != mu {
			if mu != nil {
				mu.Unlock()
			}
			mu = m
			mu.Lock()
		}
		if scrub { // scrubLocked with the flag read once per batch
			e.R.andNot(d.dead)
			e.W.andNot(d.dead)
		}
		out[i] = *e
	}
	if mu != nil {
		mu.Unlock()
	}
}

// Home returns the home truth for page (tests and debug output).
func (d *Directory) Home(page int) Entry { return d.lookup(&d.entries, page) }

// SetDead marks node as excised: its bits are scrubbed lazily from the
// full-maps at subsequent classification lookups. Takes every stripe so
// concurrent lookups see the mask change atomically.
func (d *Directory) SetDead(node int) {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.dead.Set(node)
	d.hasDead.Store(true)
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}

// ClearCache wipes node's passive directory cache — the volatile state a
// crashing node loses. A restarted node re-learns classifications through
// fresh registrations.
func (d *Directory) ClearCache(node int) {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.caches[node].Chunks(clearChunk)
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}

func clearChunk(_ int, chunk []Entry) { clear(chunk) }

// ClearDeadBit removes node from the dead-node mask (crash-restart: the
// node rejoins and its fresh registrations must survive scrubbing). Any
// stale bits of its pre-crash life that were already scrubbed stay gone;
// ones not yet scrubbed are DRF-harmless leftovers of the same node.
func (d *Directory) ClearDeadBit(node int) {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.dead.unset(node)
	d.hasDead.Store(!d.dead.Empty())
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}

// ClearDead empties the dead-node mask (between seeded runs of one
// cluster, alongside health.Detector.Reset).
func (d *Directory) ClearDead() {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.dead = Bitmap{}
	d.hasDead.Store(false)
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}

// Reset clears every entry and every cached copy that exists. The paper
// resets the full-maps at the end of the initialization phase so that
// initialization writes do not pollute the classification; the caller must
// have quiesced all simulated threads (a global barrier) first.
func (d *Directory) Reset() {
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Lock()
	}
	d.entries.Chunks(clearChunk)
	for n := range d.caches {
		d.caches[n].Chunks(clearChunk)
	}
	for i := 0; i < stripeCount; i++ {
		d.stripes[i].Unlock()
	}
}
