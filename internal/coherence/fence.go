package coherence

// The Lyra fence pipeline. Fences used to walk the resident set serially and
// post each dirty page as its own one-sided write — every page paid the post
// overhead, and every home paid a separate NIC occupancy. Here a fence runs
// in three phases:
//
//  1. Sweep: the used lines are cut into a few strided shards. Each shard,
//     under the line locks, classifies resident pages (batching the
//     directory-cache lookups per shard with CachedMany), checkpoints naive-P/S
//     private pages, and functionally downgrades dirty pages
//     (downgradeSlotLocked) — the diff (or full page) is applied to home
//     memory under the home page lock and the slot turns clean. The shards
//     run one after another on the fencing thread, each on its own clone of
//     the fence's start clock; the clones combine as their MAX, not their
//     sum, so the sweep is charged as if the shards ran side by side.
//  2. Burst: the collected downgrades are sorted by (home, page) and posted
//     as one home-grouped burst (fabric.PostWriteBurst): one post overhead
//     and one NIC occupancy per home instead of per page.
//  3. Retry: dropped posts are reissued — with the per-page fault identity
//     (seed, issuer, ClassPost, home, page, attempt) — after the usual
//     detection timeout and backoff, until everything is delivered. The
//     functional writeback already happened in phase 1, and under DRF no
//     other node reads the home bytes before this fence completes, so the
//     retry loop is purely a virtual-time matter.
//
// Evictions use phases 1 and 3 on one page: a conflict eviction or a
// write-buffer overflow downgrades the page with downgradeSlotLocked and
// posts it alone through postUntilDelivered (evictSlotLocked).
//
// In steady state a fence allocates nothing: every slice it needs lives in a
// fenceScratch record taken from a pool on entry and returned on exit.

import (
	"cmp"
	"slices"

	"argo/internal/cache"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/fault"
	"argo/internal/probe"
	"argo/internal/sim"
	"argo/internal/sparse"
)

// fenceShardMin is the fewest used lines a sweep shard gets, and
// fenceShards the most shards a sweep is cut into. The shard count depends
// only on the number of used lines — never on the host — so virtual-time
// results are machine-independent. fenceShards is a variable only so that
// in-package tests can compare a sharded sweep with a one-shard one.
const fenceShardMin = 32

var fenceShards = 4

// sweepShards returns how many shards a sweep over nl used lines is cut into.
func sweepShards(nl int) int {
	return max(1, min(fenceShards, nl/fenceShardMin))
}

// fenceScratch holds the slices one fence works in, so that a steady-state
// fence allocates nothing. The fencing thread takes a record from
// fenceScratches when the fence starts and owns it until the fence returns.
// Records go back to the list with their slices' capacity intact and their
// contents dead: every user reslices to [:0].
type fenceScratch struct {
	lines   []int             // used-line snapshot
	shard   []int             // one shard's strided share of lines
	refs    []siRef           // SI sweep: resident pages, in line order
	pages   []int             // SI sweep: CachedMany input
	entries []directory.Entry // SI sweep: CachedMany output
	items   []fabric.PostItem // downgrades awaiting the burst
	retry   []fabric.PostItem // postBurst: the failed remainder of a pass

	inv, kept int64    // SI sweep: pages invalidated / exempted
	proc      sim.Proc // the running shard's clone of the fencing clock
}

// fenceScratches keeps the records of fences that have returned. It never
// shrinks: the process keeps one record per fence it ever ran at once.
var fenceScratches sparse.FreeList[fenceScratch]

// getFenceScratch returns a scratch record, reset.
func getFenceScratch() *fenceScratch {
	sc := fenceScratches.Get()
	if sc == nil {
		sc = new(fenceScratch)
	}
	sc.items = sc.items[:0]
	sc.inv, sc.kept = 0, 0
	return sc
}

// sweep runs shard over the used lines snapshotted in sc.lines and leaves the
// collected downgrades (and the SI counts) in sc. Shard w of ns gets
// lines[w], lines[w+ns], … and runs on its own clone of p's clock at the
// fence's start; the shards run in order on the fencing thread and their
// clocks max-combine back into p. Shards must do only local work
// (line-locked cache transitions, home-memory applies, clock advances):
// anything that orders against other nodes' clocks — NIC occupancy, posted
// writes — belongs to the burst phase on p.
func (n *Node) sweep(p *sim.Proc, sc *fenceScratch, shard func(n *Node, wp *sim.Proc, lines []int, sc *fenceScratch)) {
	ns := sweepShards(len(sc.lines))
	start, end := p.Now(), p.Now()
	for w := 0; w < ns; w++ {
		sc.shard = sc.shard[:0]
		for i := w; i < len(sc.lines); i += ns {
			sc.shard = append(sc.shard, sc.lines[i])
		}
		sc.proc = sim.Proc{Node: p.Node, Socket: p.Socket, Core: p.Core}
		sc.proc.SetNow(start)
		shard(n, &sc.proc, sc.shard, sc)
		end = max(end, sc.proc.Now())
	}
	p.AdvanceTo(end)
}

// downgradeSlotLocked functionally downgrades dirty slot s — applying the
// diff (or, under SWDiffSuppress for a sole writer, the full page) to home
// memory and marking the slot clean — and returns the post that will pay for
// the wire transfer. The caller holds the line lock. This is the one
// downgrade: fences collect its posts into their burst, evictions post each
// on its own (evictSlotLocked).
func (n *Node) downgradeSlotLocked(wp *sim.Proc, ln *cache.Line, s *cache.Slot) fabric.PostItem {
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
	s.St = cache.Clean
	s.DropTwin()
	return fabric.PostItem{Home: n.Space.HomeOf(page), Bytes: tx, Key: uint64(page)}
}

// postBurst posts the sweep's downgrades home-grouped, until delivered. Runs
// on the fencing thread's clock only.
func (n *Node) postBurst(p *sim.Proc, sc *fenceScratch) {
	items := sc.items
	slices.SortFunc(items, func(a, b fabric.PostItem) int {
		if c := cmp.Compare(a.Home, b.Home); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	homes := 0
	for i, it := range items {
		if i == 0 || it.Home != items[i-1].Home {
			homes++
		}
	}
	n.Obs.Since(p, p.Now(), probe.WBBurst, int64(len(items)), int64(homes))
	sc.items, sc.retry = n.postUntilDelivered(p, items, sc.retry)
}

// postUntilDelivered posts items (grouped by home) as one burst and loops the
// failed remainder through detection, backoff and reissue until everything is
// delivered; each pass pays one detection timeout and one backoff step
// (posted completions are checked together). spare holds the remainder; both
// slices come back with whatever capacity they grew. The functional
// writeback already happened, so the loop is purely a virtual-time matter.
func (n *Node) postUntilDelivered(p *sim.Proc, post, spare []fabric.PostItem) ([]fabric.PostItem, []fabric.PostItem) {
	for pass := 0; ; pass++ {
		failed := n.Fab.PostWriteBurst(p, post)
		if len(failed) == 0 {
			return post, spare
		}
		spare = spare[:0]
		for _, idx := range failed {
			it := post[idx]
			it.Attempt++
			n.Obs.Page(p, probe.WBRetry, int(it.Key), int64(it.Attempt))
			spare = append(spare, it)
		}
		p.Advance(fault.Timeout)
		n.Fab.Backoff(p, pass)
		n.St.WritebackRetries.Add(int64(len(failed)))
		n.Fab.CountRetries(p, fault.ClassPost, len(failed))
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
// of them (the paper's common-page-cache tradeoff). The sweep is sharded
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
	fenceScratches.Put(sc)
	n.Obs.Since(p, t0, probe.SIFence, inv, kept)
}

// siSweepShard sweeps one shard of the used lines: snapshot the
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
			wp.Advance(fencePerPage)
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
	// A kept record must not pin this cluster's cache once the run is over.
	clear(refs)
}

// ---------------------------------------------------------------------------
// SD fence
// ---------------------------------------------------------------------------

// SDFence self-downgrades all dirty pages: the write buffer is flushed, and
// in the naive P/S mode every modified private page is checkpointed on the
// spot (the cost that motivates P/S3's private self-downgrade). The sweep is
// sharded across used lines; the downgrades travel as one home-grouped
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
	fenceScratches.Put(sc)
	n.Obs.Since(p, t0, probe.SDFence, downgraded, residue)
}

// sdSweepShard sweeps one shard of the used lines, downgrading
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
