package coherence

// The Lyra fence pipeline. Fences used to walk the resident set serially and
// post each dirty page as its own one-sided write — every page paid the post
// overhead, and every home paid a separate NIC occupancy. Here a fence runs
// in three phases:
//
//  1. Sweep (parallel): the used lines are sharded over a small fixed worker
//     pool. Each worker, under the line locks, classifies resident pages
//     (batching the directory-cache lookups per worker with CachedMany),
//     checkpoints naive-P/S private pages, and functionally downgrades dirty
//     pages exactly as the unbatched path did — the diff (or full page) is
//     applied to home memory under the home page lock and the slot turns
//     clean. Workers run on clones of the fencing thread's virtual clock;
//     their host-side work overlaps in real time and combines as the MAX of
//     the worker clocks, not the sum.
//  2. Burst: the collected downgrades are sorted by (home, page) and posted
//     as one home-grouped burst (fabric.PostWriteBurst): one post overhead
//     and one NIC occupancy per home instead of per page.
//  3. Retry: dropped posts are reissued — with the per-page fault identity
//     (seed, issuer, ClassPost, home, page, attempt) exactly as the serial
//     flush-detect-reissue loop drew them — after the usual detection
//     timeout and backoff, until everything is delivered. The functional
//     writeback already happened in phase 1, and under DRF no other node
//     reads the home bytes before this fence completes, so the retry loop
//     is purely a virtual-time matter.
//
// Applying home-side data from sweep workers is safe for the same reason it
// was safe from the fencing thread: the line lock pins the slot, the home
// page lock orders the apply, and DRF guarantees no remote reader consumes
// the bytes before the fence (and the release it implements) completes.
//
// In steady state a fence allocates nothing but the goroutines of a parallel
// sweep, one closure per worker spawn: every slice a fence needs, and the
// records and wait group of its sweep workers, live in a fenceScratch record
// taken from a pool on entry and returned on exit.

import (
	"cmp"
	"slices"
	"sync"

	"argo/internal/cache"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/probe"
	"argo/internal/sim"
)

// fenceShardMin is the minimum number of used lines per sweep worker. Below
// it a fence sweeps inline on the fencing thread: spawning goroutines for a
// handful of lines costs more host time than the overlap saves.
const fenceShardMin = 32

// sweepWorkers returns how many workers a sweep over nl used lines employs.
// The count depends only on nl and the configured pool size — never on the
// host's CPU count — so virtual-time results are machine-independent.
func (n *Node) sweepWorkers(nl int) int {
	w := n.Opt.FenceWorkers
	if w < 1 {
		w = 1
	}
	if cap := nl / fenceShardMin; w > cap {
		w = cap
	}
	if w < 1 {
		w = 1
	}
	return w
}

// fenceScratch holds the slices one fence — or one worker of a parallel
// sweep — works in, so that a steady-state fence allocates nothing but its
// workers' goroutines. The fencing thread takes a record from
// fenceScratchPool when the fence starts and owns it until the fence returns;
// a parallel sweep's workers each own one of the records in its workers list
// until the fencing thread has merged their results after the join. Worker
// records stay with their fencing record, so every record's slices grow for
// one role only; records the pool handed out for either role grew the slices
// of both, postBurst's and the merge's among them, and regrew them whenever a
// collection emptied the pool. Records go back to the pool with their slices'
// capacity intact and their contents dead: every user reslices to [:0].
type fenceScratch struct {
	lines   []int             // used-line snapshot (a worker: its strided share)
	refs    []siRef           // SI sweep: resident pages, in line order
	pages   []int             // SI sweep: CachedMany input
	entries []directory.Entry // SI sweep: CachedMany output
	items   []burstItem       // downgrades awaiting the burst
	post    []fabric.PostItem // postBurst: the pass being posted
	retry   []fabric.PostItem // postBurst: the failed remainder of that pass

	inv, kept int64    // SI sweep: pages invalidated / exempted
	proc      sim.Proc // a parallel sweep worker's clone of the fencing clock

	workers []*fenceScratch // a parallel sweep's worker records
	wg      sync.WaitGroup  // joins them
}

var fenceScratchPool = sync.Pool{New: func() any { return new(fenceScratch) }}

// getFenceScratch returns a scratch record, reset.
func getFenceScratch() *fenceScratch {
	sc := fenceScratchPool.Get().(*fenceScratch)
	sc.reset()
	return sc
}

// reset empties the downgrade list and zeroes the SI counts; the other slices
// are resliced by whoever fills them.
func (sc *fenceScratch) reset() {
	sc.items = sc.items[:0]
	sc.inv, sc.kept = 0, 0
}

// sweep runs shard over the used lines snapshotted in sc.lines and leaves the
// collected downgrades (and the SI counts) in sc. Up to sweepWorkers strided
// shards run concurrently — shard w gets lines[w], lines[w+nw], …,
// deterministic regardless of the host — each in its own scratch record and
// on a clone of p's clock; the clones max-combine back into p and the results
// are merged in worker order. With one worker the shard runs inline on p and
// sc. Workers must do only local work (line-locked cache transitions,
// home-memory applies, clock advances): anything that orders against other
// nodes' clocks — NIC occupancy, posted writes — belongs to the burst phase
// on p, or replay determinism is lost.
func (n *Node) sweep(p *sim.Proc, sc *fenceScratch, shard func(n *Node, wp *sim.Proc, lines []int, sc *fenceScratch)) {
	nw := n.sweepWorkers(len(sc.lines))
	if nw == 1 {
		shard(n, p, sc.lines, sc)
		return
	}
	for len(sc.workers) < nw {
		sc.workers = append(sc.workers, new(fenceScratch))
	}
	workers := sc.workers[:nw]
	sc.wg.Add(nw)
	for w, ws := range workers {
		ws.reset()
		ws.proc = sim.Proc{Node: p.Node, Socket: p.Socket, Core: p.Core}
		ws.proc.SetNow(p.Now())
		ws.lines = ws.lines[:0]
		for i := w; i < len(sc.lines); i += nw {
			ws.lines = append(ws.lines, sc.lines[i])
		}
		go ws.runShard(n, shard, &sc.wg)
	}
	sc.wg.Wait()
	for _, ws := range workers {
		p.AdvanceTo(ws.proc.Now())
		p.Hits += ws.proc.Hits
		sc.items = append(sc.items, ws.items...)
		sc.inv += ws.inv
		sc.kept += ws.kept
	}
}

// runShard is a sweep worker's goroutine: shard over the worker's own lines,
// on its own clock and in its own record.
func (ws *fenceScratch) runShard(n *Node, shard func(n *Node, wp *sim.Proc, lines []int, sc *fenceScratch), wg *sync.WaitGroup) {
	defer wg.Done()
	shard(n, &ws.proc, ws.lines, ws)
}

// burstItem is one functionally-downgraded page awaiting its virtual post.
type burstItem struct {
	page    int
	home    int
	tx      int // bytes the post carries (diff size, or the full page)
	attempt int // first fault-identity attempt (the slot's WBTries)
}

// downgradeSlotLocked functionally downgrades dirty slot s — applying the
// diff (or, under SWDiffSuppress for a sole writer, the full page) to home
// memory and marking the slot clean — and returns the burst item that will
// pay for the wire transfer. The caller holds the line lock. This is
// writebackSlotLocked with the posted write split off into the fence's burst.
func (n *Node) downgradeSlotLocked(wp *sim.Proc, ln *cache.Line, s *cache.Slot) burstItem {
	page := s.Page
	// Dirty→Clean: invalidate the line's TLB entries and drain lock-free
	// writers before the diff reads the data, so no fast-path store that
	// validated against the old generation can be missed (see cache/tlb.go).
	ln.BumpGen()
	var preferFull func() bool
	if n.Opt.SWDiffSuppress && n.Opt.Mode == ModePS3 {
		preferFull = func() bool {
			e := n.Dir.Cached(n.ID, page)
			return e.W.Only(n.ID)
		}
	}
	tx, full := n.Space.Writeback(page, s.Data, s.Twin, preferFull)
	if !full {
		// Diff creation scans the page against its twin.
		wp.Advance(n.Fab.P.CopyCost(n.Cache.PageSize))
	}
	n.St.Writebacks.Add(1)
	n.St.WritebackBytes.Add(int64(tx))
	n.Obs.Page(wp, probe.Writeback, page, int64(tx))
	it := burstItem{page: page, home: n.Space.HomeOf(page), tx: tx, attempt: s.WBTries}
	s.St = cache.Clean
	s.WBTries = 0
	s.DropTwin()
	return it
}

// postBurst posts the sweep's downgrades home-grouped and loops the failed
// remainder through detection, backoff and reissue until delivered. Runs on
// the fencing thread's clock only.
func (n *Node) postBurst(p *sim.Proc, sc *fenceScratch) {
	items := sc.items
	slices.SortFunc(items, func(a, b burstItem) int {
		if c := cmp.Compare(a.home, b.home); c != 0 {
			return c
		}
		return cmp.Compare(a.page, b.page)
	})
	post, spare := sc.post[:0], sc.retry
	homes := 0
	for i, it := range items {
		post = append(post, fabric.PostItem{Home: it.home, Bytes: it.tx, Key: uint64(it.page), Attempt: it.attempt})
		if i == 0 || it.home != items[i-1].home {
			homes++
		}
	}
	n.Obs.Since(p, p.Now(), probe.WBBurst, int64(len(items)), int64(homes))
	for pass := 0; ; pass++ {
		failed := n.Fab.PostWriteBurst(p, post)
		if len(failed) == 0 {
			sc.post, sc.retry = post, spare // keep whatever capacity they grew
			return
		}
		spare = spare[:0]
		for _, idx := range failed {
			it := post[idx]
			it.Attempt++
			n.Obs.Page(p, probe.WBRetry, int(it.Key), int64(it.Attempt))
			spare = append(spare, it)
		}
		n.wbRetryPenalty(p, len(failed), pass)
		post, spare = spare, post
	}
}

// ---------------------------------------------------------------------------
// SI fence
// ---------------------------------------------------------------------------

// siRef is one resident page an SI sweep snapshotted under its line lock.
type siRef struct {
	s          *cache.Slot
	line, page int
}

// SIFence self-invalidates the node's page cache: every cached page that the
// classification cannot exempt is dropped, downgrading dirty ones first.
// Threads of one node share the cache, so one thread's SI fence affects all
// of them (the paper's common-page-cache tradeoff). The sweep parallelizes
// across used lines; the downgrades travel as one home-grouped burst.
func (n *Node) SIFence(p *sim.Proc) {
	n.St.SIFences.Add(1)
	n.PublishHits(p)
	t0 := p.Now()
	sc := getFenceScratch()
	sc.lines = n.Cache.AppendUsedLines(sc.lines[:0])
	n.sweep(p, sc, (*Node).siSweepShard)
	n.Cache.CompactUsedList()
	if len(sc.items) > 0 {
		n.postBurst(p, sc)
	}
	inv, kept := sc.inv, sc.kept
	fenceScratchPool.Put(sc)
	n.Obs.Since(p, t0, probe.SIFence, inv, kept)
}

// siSweepShard sweeps one worker's share of the used lines: snapshot the
// resident pages, batch the classification lookups with one CachedMany, then
// invalidate (downgrading first where dirty) the pages the classification
// cannot exempt.
func (n *Node) siSweepShard(wp *sim.Proc, lines []int, sc *fenceScratch) {
	refs, pages := sc.refs[:0], sc.pages[:0]
	for _, l := range lines {
		ln := n.Cache.LockLine(l)
		slots := ln.Slots()
		for i := range slots {
			s := &slots[i]
			if s.Page < 0 || s.St == cache.Invalid {
				continue
			}
			wp.Advance(n.Opt.FencePerPage)
			refs = append(refs, siRef{s, l, s.Page})
			pages = append(pages, s.Page)
		}
		ln.Unlock()
	}
	sc.refs, sc.pages = refs, pages
	if len(refs) == 0 {
		return
	}
	entries := slices.Grow(sc.entries[:0], len(refs))[:len(refs)]
	sc.entries = entries
	n.Dir.CachedMany(n.ID, pages, entries)
	for i := 0; i < len(refs); {
		l := refs[i].line
		bumped := false
		ln := n.Cache.LockLine(l)
		for ; i < len(refs) && refs[i].line == l; i++ {
			s := refs[i].s
			if s.Page != refs[i].page || s.St == cache.Invalid {
				continue // replaced between snapshot and act: post-fence state
			}
			if !ShouldSelfInvalidate(n.Opt.Mode, entries[i], n.ID) {
				n.St.SIFiltered.Add(1)
				n.Obs.Page(wp, probe.Keep, s.Page, 0)
				sc.kept++
				continue
			}
			if !bumped {
				// Lazy per-line TLB shoot-down: only lines that actually
				// invalidate something pay the generation bump, so exempted
				// (kept) pages keep their fast-path entries across the fence.
				ln.BumpGen()
				bumped = true
			}
			if s.St == cache.Dirty {
				sc.items = append(sc.items, n.downgradeSlotLocked(wp, ln, s))
			}
			n.Obs.Page(wp, probe.Invalidate, s.Page, 0)
			s.Invalidate()
			n.St.SelfInvalidations.Add(1)
			sc.inv++
		}
		n.Cache.RetireLineIfEmpty(ln)
		ln.Unlock()
	}
	// A pooled record must not pin this cluster's cache once the run is over.
	clear(refs)
}

// ---------------------------------------------------------------------------
// SD fence
// ---------------------------------------------------------------------------

// SDFence self-downgrades all dirty pages: the write buffer is flushed, and
// in the naive P/S mode every modified private page is checkpointed on the
// spot (the cost that motivates P/S3's private self-downgrade). The sweep
// parallelizes across used lines; the downgrades travel as one home-grouped
// burst, and lost posts are reissued from the burst loop.
func (n *Node) SDFence(p *sim.Proc) {
	n.St.SDFences.Add(1)
	n.PublishHits(p)
	t0 := p.Now()
	var residue int64 // what the write buffer left for this fence to do
	if n.Obs != nil {
		residue = int64(n.Cache.WBLen())
	}
	sc := getFenceScratch()
	sc.lines = n.Cache.AppendUsedLines(sc.lines[:0])
	n.sweep(p, sc, (*Node).sdSweepShard)
	n.clearWB()
	downgraded := int64(len(sc.items))
	if downgraded > 0 {
		n.postBurst(p, sc)
		// Wait for the last posted downgrade to land before the fence
		// completes (the flush that makes the writes globally visible).
		p.Advance(n.Fab.P.RemoteLatency)
	}
	fenceScratchPool.Put(sc)
	n.Obs.Since(p, t0, probe.SDFence, downgraded, residue)
}

// sdSweepShard sweeps one worker's share of the used lines, downgrading
// every dirty page (checkpointing private ones in the naive P/S mode).
func (n *Node) sdSweepShard(wp *sim.Proc, lines []int, sc *fenceScratch) {
	for _, l := range lines {
		ln := n.Cache.LockLine(l)
		slots := ln.Slots()
		for i := range slots {
			s := &slots[i]
			if s.Page < 0 || s.St != cache.Dirty {
				continue
			}
			if n.Opt.Mode == ModePS {
				e := n.Dir.Cached(n.ID, s.Page)
				if e.R.Count() <= 1 {
					n.checkpointSlotLocked(wp, ln, s)
					continue
				}
			}
			sc.items = append(sc.items, n.downgradeSlotLocked(wp, ln, s))
		}
		ln.Unlock()
	}
}
