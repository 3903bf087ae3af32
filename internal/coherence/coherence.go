// Package coherence implements Carina, Argo's coherence protocol.
//
// Carina keeps page caches coherent for data-race-free programs with two
// local mechanisms — self-invalidation (SI) and self-downgrade (SD) — and no
// message handlers: every protocol action is a one-sided operation issued by
// the requesting node against home memory (package mem) and the passive
// Pyxis directory (package directory).
//
//   - A node may read any page, promising to self-invalidate it before
//     passing a synchronization point with acquire semantics (the SI fence).
//   - A node may write any cached page without permission, promising to make
//     the writes visible at its home before passing a release point
//     (the SD fence). Dirty pages drain continuously through a FIFO write
//     buffer so the SD fence has a bounded amount of work left.
//
// Unconstrained SI is ruinous, so Carina filters it with the Pyxis
// classification (Table 1 of the paper):
//
//	mode S    — no classification: every fence invalidates and downgrades
//	            everything (the baseline).
//	mode P/S  — the naive private/shared split: private pages skip SI but
//	            are not continuously downgraded; instead every modified
//	            private page must be checkpointed at each synchronization
//	            point so P→S transitions can be serviced. The checkpoint
//	            cost sits on the critical path of every sync.
//	mode P/S3 — the full Carina scheme: private pages self-downgrade like
//	            shared ones (trading bandwidth for latency, and making the
//	            P→S transition agent-free), and shared pages carry a writer
//	            classification: S,NW and pages whose single writer is this
//	            node are exempt from SI.
package coherence

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"

	"argo/internal/cache"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/probe"
	"argo/internal/sim"
	"argo/internal/stats"
)

// Mode selects the data classification used to filter self-invalidation.
type Mode int

const (
	// ModeS — no classification; all pages shared.
	ModeS Mode = iota
	// ModePS — naive private/shared classification with checkpointing.
	ModePS
	// ModePS3 — full private/shared plus writer classification, with
	// private self-downgrade (Argo's default).
	ModePS3
)

func (m Mode) String() string {
	switch m {
	case ModeS:
		return "S"
	case ModePS:
		return "PS"
	case ModePS3:
		return "PS3"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure a node's protocol behaviour.
type Options struct {
	Mode Mode
	// SWDiffSuppress enables the paper's future-work optimization: a node
	// that is the sole writer of a page writes back the full page instead
	// of creating and transmitting a diff (latency for bandwidth).
	SWDiffSuppress bool
}

const (
	// fencePerPage is the bookkeeping cost a fence pays per examined cached
	// page (the amortized mprotect/metadata sweep).
	fencePerPage sim.Time = 10
	// checkpointPageCost is the naive-P/S per-page checkpoint overhead at a
	// synchronization point: write-protecting the page, taking the later
	// fault, and staging the copy where a P→S transition can be serviced,
	// all synchronously at the fence. This cost is what makes the naive
	// classification "no better than S" (§5.1).
	checkpointPageCost sim.Time = 3000
)

// Node is the per-node coherence agent: it owns the node's page cache and
// drives all Carina actions for the threads running on that node.
type Node struct {
	ID    int
	Fab   *fabric.Fabric
	Space *mem.Space
	Dir   *directory.Directory
	Cache *cache.Cache
	Opt   Options
	St    *stats.Node

	// Obs, when non-nil, hears of every protocol action of this node — each
	// miss, fetch, downgrade, classification step, eviction, fence and
	// write-buffer drain, and the threads' published hit counts — on the lane
	// of the thread that performed it. The page cache itself reports nothing.
	Obs *probe.Spine
}

// NewNode creates the coherence agent of node id.
func NewNode(id int, fab *fabric.Fabric, space *mem.Space, dir *directory.Directory, c *cache.Cache, opt Options) *Node {
	return &Node{
		ID:    id,
		Fab:   fab,
		Space: space,
		Dir:   dir,
		Cache: c,
		Opt:   opt,
		St:    fab.NodeStats(id),
	}
}

// ---------------------------------------------------------------------------
// Read and write paths
// ---------------------------------------------------------------------------

// ReadAt copies len(dst) bytes at global address addr into dst through the
// page cache, faulting pages in as needed.
func (n *Node) ReadAt(p *sim.Proc, addr mem.Addr, dst []byte) {
	n.readSegs(p, nil, addr, len(dst), func(off int, data []byte) {
		copy(dst[off:], data)
	})
}

// WriteAt writes src to global address addr through the page cache,
// faulting and write-missing pages as needed.
func (n *Node) WriteAt(p *sim.Proc, addr mem.Addr, src []byte) {
	n.writeSegs(p, nil, addr, len(src), func(off int, data []byte) {
		copy(data, src[off:])
	})
}

// readSegs is the line-locked read walk, the one read path below the TLB: it
// walks the page segments of [addr, addr+nbytes) and hands each segment's
// in-cache bytes to fn under the line lock, faulting pages in as needed, and
// refills tb (nil for bulk accesses) so the thread's next access to the page
// can go lock-free. off is the segment's offset into the logical range. fn
// must only read the bytes and must not retain the slice.
func (n *Node) readSegs(p *sim.Proc, tb *cache.TLB, addr mem.Addr, nbytes int, fn func(off int, data []byte)) {
	ps := n.Space.PageSize
	for done := 0; done < nbytes; {
		page := n.Space.PageOf(addr)
		off := int(addr) % ps
		seg := ps - off
		if seg > nbytes-done {
			seg = nbytes - done
		}
		ln := n.Cache.LockLine(n.Cache.LineOf(page))
		s := n.Cache.SlotOf(ln, page)
		if s.Page != page || s.St == cache.Invalid {
			s = n.missLocked(p, ln, page)
		} else {
			p.Hits++
		}
		p.AdvanceTo(s.ReadyAt)
		p.Advance(n.accessCost(seg))
		fn(done, s.Data[off:off+seg])
		ln.FillTLB(tb, s)
		ln.Unlock()
		done += seg
		addr += mem.Addr(seg)
	}
}

// writeSegs is the line-locked write walk: it walks the page segments of
// [addr, addr+nbytes) and hands each segment's in-cache bytes to fn under
// the line lock for in-place encoding, faulting and write-missing pages as
// needed, and refills tb (nil for bulk accesses) — with the slot now dirty,
// that arms the write fast path for the thread's next store. off is the
// segment's offset into the logical range; fn must fill the whole slice.
func (n *Node) writeSegs(p *sim.Proc, tb *cache.TLB, addr mem.Addr, nbytes int, fn func(off int, data []byte)) {
	ps := n.Space.PageSize
	for done := 0; done < nbytes; {
		page := n.Space.PageOf(addr)
		off := int(addr) % ps
		seg := ps - off
		if seg > nbytes-done {
			seg = nbytes - done
		}
		ln := n.Cache.LockLine(n.Cache.LineOf(page))
		s := n.Cache.SlotOf(ln, page)
		if s.Page != page || s.St == cache.Invalid {
			s = n.missLocked(p, ln, page) // write-allocate: fetch the page first
		} else {
			p.Hits++
		}
		p.AdvanceTo(s.ReadyAt)

		victim, evict := -1, false
		miss := s.St == cache.Clean
		if miss {
			victim, evict = n.writeMissLocked(p, s)
		}
		p.Advance(n.accessCost(seg))
		fn(done, s.Data[off:off+seg])
		ln.FillTLB(tb, s)
		ln.Unlock()

		if evict {
			// Write-buffer overflow: downgrade the oldest dirty page. Done
			// after releasing the current line lock to keep lock order safe.
			n.writebackIfDirty(p, victim)
		}
		if miss {
			maybeYield()
		}
		done += seg
		addr += mem.Addr(seg)
	}
}

// maybeYield yields the host scheduler at page-open points so the write
// streams of a node's threads interleave as they would under preemptive
// scheduling (on few-CPU hosts simulated threads otherwise run their whole
// loops back to back and the write buffer never sees concurrent streams).
// No semantic effect.
func maybeYield() { runtime.Gosched() }

// NewTLB builds the Lynx access-translation cache of one thread running on
// this node: the node's page geometry and hit cost are copied into it, so the
// thread's resident accesses (cache.TLB.Load and Store) never come here.
func (n *Node) NewTLB() *cache.TLB { return n.Cache.NewTLB(n.Fab.P.CacheHit) }

// PublishHits reports the hits p has counted since its last publication.
// Hits are counted per access in Proc.Hits only — a hit reaches no probe; the
// fences publish them, and core.Cluster.RunSeeded once more at the end of a
// launch, so an observer's hit count is exact whenever a thread is between
// intervals.
func (n *Node) PublishHits(p *sim.Proc) {
	if n.Obs != nil {
		n.Obs.Since(p, p.Now(), probe.Hits, p.TakeHits(), 0)
	}
}

// ReadWord reads the little-endian 64-bit word at addr through the page
// cache on behalf of a thread whose TLB tb (possibly nil) missed, and refills
// tb. Accounting is that of cache.TLB.Load on a hit (accessCost(8) is one
// CacheHit).
func (n *Node) ReadWord(p *sim.Proc, tb *cache.TLB, addr mem.Addr) uint64 {
	var b [8]byte
	n.readSegs(p, tb, addr, len(b), func(off int, data []byte) {
		copy(b[off:], data)
	})
	return binary.LittleEndian.Uint64(b[:])
}

// WriteWord writes the little-endian 64-bit word v at addr through the page
// cache on behalf of a thread whose TLB tb (possibly nil) missed — the page
// is not resident, not dirty yet, or the entry went stale. See ReadWord.
func (n *Node) WriteWord(p *sim.Proc, tb *cache.TLB, addr mem.Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	n.writeSegs(p, tb, addr, len(b), func(off int, data []byte) {
		copy(data, b[off:])
	})
}

// accessCost is the cost of a cache-hitting access of n bytes: a hardware
// memory access, plus a copy term for bulk transfers.
func (n *Node) accessCost(nbytes int) sim.Time {
	c := n.Fab.P.CacheHit
	if nbytes > 64 {
		c += n.Fab.P.CopyCost(nbytes)
	}
	return c
}

// writeMissLocked performs Carina's write-miss protocol on a clean cached
// page: create the twin (checkpoint for diffing), register this node as a
// writer if it is not one already (detecting NW→SW and SW→MW transitions and
// notifying exactly the nodes that must learn of them), mark the page dirty
// and enter it into the write buffer. The caller holds the line lock.
// It returns the write-buffer victim to downgrade, if any.
func (n *Node) writeMissLocked(p *sim.Proc, s *cache.Slot) (victim int, evict bool) {
	n.St.WriteMisses.Add(1)
	page := s.Page
	n.Obs.Page(p, probe.WriteMiss, page, 0)

	// Twin creation: a local page copy (the paper's "checkpointing for
	// diffs happens only on a write miss").
	n.Cache.EnsureTwin(s)
	p.Advance(n.Fab.P.CopyCost(n.Cache.PageSize))

	cached := n.Dir.Cached(n.ID, page)
	if !cached.W.Has(n.ID) {
		old := n.Dir.RegisterWriter(p, page, n.ID)
		switch {
		case old.W.Empty():
			// NW→SW: every node caching the page believed it read-only
			// and must learn there is now a writer.
			n.Obs.Page(p, probe.ClassTransition, page, probe.ClassNWtoSW)
			old.R.ForEach(func(r int) {
				if r != n.ID {
					n.Dir.Notify(p, page, r)
					n.Obs.Page(p, probe.Notify, page, int64(r))
				}
			})
		case old.W.Count() == 1 && !old.W.Has(n.ID):
			// SW→MW: only the previous single writer cares; for everyone
			// else SW (someone else) and MW are equivalent.
			n.Obs.Page(p, probe.ClassTransition, page, probe.ClassSWtoMW)
			n.Dir.Notify(p, page, old.W.First())
			n.Obs.Page(p, probe.Notify, page, int64(old.W.First()))
		}
	}

	s.St = cache.Dirty

	// In the naive P/S mode private pages are *not* continuously
	// downgraded; they linger dirty until the checkpoint sweep at the next
	// synchronization point.
	if n.Opt.Mode == ModePS && cached.R.Count() <= 1 {
		return -1, false
	}
	return n.Cache.WBPush(page)
}

// missLocked is the one miss prologue of the read and write paths, run only
// when page is not resident: count and report the miss (a write-allocate miss
// fetches the page first, so it is a read miss too), refill the line and
// return the page's slot. ln is page's line.
func (n *Node) missLocked(p *sim.Proc, ln *cache.Line, page int) *cache.Slot {
	n.St.ReadMisses.Add(1)
	n.Obs.Page(p, probe.ReadMiss, page, 0)
	n.fetchLineLocked(p, ln, page)
	return n.Cache.SlotOf(ln, page)
}

// fetchLineLocked services a miss on page by fetching its whole aligned
// cache line (prefetching), evicting any conflicting residents. ln is page's
// line.
func (n *Node) fetchLineLocked(p *sim.Proc, ln *cache.Line, page int) {
	base := n.Cache.LineBase(page)
	slots := ln.Slots()

	// The refill mutates slot state and (via conflict eviction) reads slot
	// data for diffs: invalidate the line's TLB entries and drain fast-path
	// writers before touching anything.
	ln.BumpGen()

	t0 := p.Now()
	// Scratch for the common line widths lives on the stack; wider lines
	// spill to the heap through append.
	var regsBuf [8]fabric.AtomicItem
	var fetchedBuf [8]*cache.Slot
	var homesBuf [8]fabric.HomePages
	regs, fetched, homes := regsBuf[:0], fetchedBuf[:0], homesBuf[:0]
	for i := range slots {
		s := &slots[i]
		want := base + i
		if want >= n.Space.NPages {
			break
		}
		if s.Page == want && s.St != cache.Invalid {
			continue // already resident
		}
		if s.St == cache.Dirty {
			// Conflict eviction of a dirty page: downgrade it first. The
			// slot is about to be reused, so loss detection cannot wait
			// for the next fence — the downgrade is forced through here.
			n.evictSlotLocked(p, ln, s)
		}
		if s.Page >= 0 && s.St != cache.Invalid {
			n.Obs.Page(p, probe.Evict, s.Page, 0)
		}
		s.Invalidate()
		s.Page = want
		n.Cache.PrepareRefill(s)

		home := n.Space.HomeOf(want)
		// The line's registrations and page transfers are independent
		// one-sided operations: perform them functionally here, charge
		// them as bursts below (one fetch-and-or burst per home stripe,
		// then the pipelined page transfers).
		old := n.Dir.RegisterReaderBatched(want, n.ID)
		if !old.R.Has(n.ID) {
			regs = append(regs, fabric.AtomicItem{Home: home, Key: uint64(want)})
		}
		if old.R.Count() == 1 && !old.R.Has(n.ID) {
			// P→S: the private owner must learn it now shares the page.
			// Its own dirty data is already at the home (private pages
			// self-downgrade in P/S3; in other modes everything does).
			n.Obs.Page(p, probe.ClassTransition, want, probe.ClassPtoS)
			n.Dir.Notify(p, want, old.R.First())
			n.Obs.Page(p, probe.Notify, want, int64(old.R.First()))
		}
		homes = countHomePage(homes, home)
		fetched = append(fetched, s)
	}
	if len(fetched) == 0 {
		return
	}
	n.Cache.MarkLineUsed(ln)
	if len(regs) == 0 {
		// Re-fetching already-registered pages still refreshes the local
		// directory-cache view with one atomic (§3.3: a node's view is
		// updated "on its next request").
		pg := fetched[0].Page
		regs = append(regs, fabric.AtomicItem{Home: n.Space.HomeOf(pg), Key: uint64(pg)})
	}
	n.registerBurst(p, regs)
	n.Fab.FetchLine(p, homes, n.Cache.PageSize, uint64(base))
	for _, s := range fetched {
		// A plain memmove into the recycled buffer: the generation bump
		// above already fenced off every lock-free reader and writer (see
		// cache/tlb.go, pillars 2 and 3).
		n.Space.ReadPage(s.Page, s.Data)
		s.St = cache.Clean
		s.ReadyAt = p.Now()
	}
	n.St.ColdFetches.Add(int64(len(fetched)))
	if len(fetched) > 1 {
		n.St.PrefetchedPages.Add(int64(len(fetched) - 1))
	}
	n.Obs.Page(p, probe.LineFetch, base, int64(len(fetched)))
	// Only one in-flight fetch per node (the prototype's MPI passive-RMA
	// limitation): serialize the span of this fetch on the node gate.
	n.Cache.FetchGate.OccupyAt(p, t0, p.Now()-t0)
}

// countHomePage adds one page transfer from home to a line fetch's per-home
// tally, which it keeps in ascending home order (what Fabric.FetchLine takes).
func countHomePage(homes []fabric.HomePages, home int) []fabric.HomePages {
	i := 0
	for i < len(homes) && homes[i].Home < home {
		i++
	}
	if i < len(homes) && homes[i].Home == home {
		homes[i].Pages++
		return homes
	}
	homes = append(homes, fabric.HomePages{})
	copy(homes[i+1:], homes[i:])
	homes[i] = fabric.HomePages{Home: home, Pages: 1}
	return homes
}

// registerBurst delivers a line fetch's Pyxis fetch-and-or registrations as
// home-grouped bursts, reissuing dropped or transiently failed items until
// everything took effect (fetch-and-OR is idempotent, so reissue is safe).
// Mirrors the downgrade's postUntilDelivered loop: each pass pays one detection
// timeout plus backoff, failed items carry their attempt count forward so
// per-item Corvus fault identity — and with it the escalation guarantee —
// is exactly that of the unbatched path.
func (n *Node) registerBurst(p *sim.Proc, items []fabric.AtomicItem) {
	if len(items) == 0 {
		return
	}
	// By (home, page). slices.SortFunc, unlike sort.Slice, allocates neither
	// a reflect swapper nor a closure — this runs on every miss.
	slices.SortFunc(items, func(a, b fabric.AtomicItem) int {
		if c := cmp.Compare(a.Home, b.Home); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	for pass := 0; ; pass++ {
		failed := n.Fab.AtomicBurst(p, items)
		if len(failed) == 0 {
			return
		}
		retry := make([]fabric.AtomicItem, 0, len(failed))
		for _, i := range failed {
			it := items[i]
			it.Attempt++
			retry = append(retry, it)
		}
		p.Advance(fault.Timeout)
		n.Fab.Backoff(p, pass)
		n.Fab.CountRetries(p, fault.ClassAtomic, len(failed))
		items = retry
	}
}

// CrashWipe models a crash-stop failure's volatile-state loss (Cygnus): the
// page cache is dropped wholesale — dirty pages are NOT flushed, their
// un-released writes die with the node, which is DRF-sound because no
// correct program could have observed them — and the write buffer and fetch
// gate are cleared. Home memory and the Pyxis directory survive; the dead
// node's directory bits are scrubbed lazily by the survivors.
func (n *Node) CrashWipe() {
	n.Cache.Reset()
}

// ---------------------------------------------------------------------------
// Downgrade (writeback)
// ---------------------------------------------------------------------------

// writebackIfDirty downgrades page to its home if it is still cached dirty.
// The caller (write-buffer overflow) promised the downgrade happens now, so
// a lost post is detected and reissued inline rather than at the next fence.
func (n *Node) writebackIfDirty(p *sim.Proc, page int) {
	ln := n.Cache.LockLine(n.Cache.LineOf(page))
	s := n.Cache.SlotOf(ln, page)
	if s.Page == page && s.St == cache.Dirty {
		n.evictSlotLocked(p, ln, s)
	}
	ln.Unlock()
}

// evictSlotLocked downgrades dirty slot s and posts the page home on p's
// clock as a one-item burst, reissuing a lost post until it is delivered. Used
// where the slot is immediately reused (conflict eviction) or delivery was
// promised (write-buffer overflow), so loss detection cannot wait for the
// next fence. An eviction emits no burst-shape event: wb-burst is the fences'.
func (n *Node) evictSlotLocked(p *sim.Proc, ln *cache.Line, s *cache.Slot) {
	var buf [2]fabric.PostItem // the post and its reissue, on the stack
	buf[0] = n.downgradeSlotLocked(p, ln, s)
	n.postUntilDelivered(p, buf[:1:1], buf[1:1])
}

// checkpointSlotLocked is the naive-P/S downgrade of a modified private
// page at a synchronization point: create a checkpoint copy (charged) and
// publish the content to the home so a later P→S transition can be serviced
// without an active agent. The wire transfer is not charged here — on the
// paper's naive scheme the data would move only when a consumer pulls it,
// and the consumer pays a full page fetch either way.
func (n *Node) checkpointSlotLocked(p *sim.Proc, ln *cache.Line, s *cache.Slot) {
	ln.BumpGen() // Dirty→Clean: drain fast writers
	p.Advance(checkpointPageCost + n.Fab.P.CopyCost(n.Cache.PageSize))
	n.St.Checkpoints.Add(1)
	n.Obs.Page(p, probe.Checkpoint, s.Page, 0)
	n.Space.WritePageFull(s.Page, s.Data)
	s.St = cache.Clean
	s.DropTwin()
}

// ---------------------------------------------------------------------------
// Fences
// ---------------------------------------------------------------------------

// ShouldSelfInvalidate reports whether a page with directory-cache entry e
// must be dropped at an SI fence under mode m, as seen by node self. This is
// Table 1 of the paper as executable logic.
func ShouldSelfInvalidate(m Mode, e directory.Entry, self int) bool {
	switch m {
	case ModeS:
		return true
	case ModePS:
		return e.R.Count() > 1
	default: // ModePS3
		if e.R.Count() <= 1 {
			return false // private
		}
		if e.W.Empty() {
			return false // shared, no writers (read-only)
		}
		if e.W.Only(self) {
			return false // shared, and we are the single writer
		}
		return true
	}
}

// The SI and SD fence implementations live in fence.go (the Lyra fence
// pipeline: sharded sweeps and home-grouped burst downgrades).

// ResetForPhase drops all cached state (after flushing it home so no data is
// lost) without charging virtual time. Used by the collective classification
// reset at the end of a program's initialization phase, by decay-style
// adaptive reclassification and between the Runs of a cluster. The caller
// must have quiesced all threads.
func (n *Node) ResetForPhase() {
	n.Cache.InvalidateAll(func(s *cache.Slot) {
		// Diff against the twin so concurrent dirty copies of the same page
		// on other nodes (false sharing during the init phase) are not
		// clobbered.
		n.Space.ApplyDiff(s.Page, s.Data, s.Twin)
	})
	n.clearWB()
}

// clearWB empties the write buffer and reports how many entries that dropped
// (how much work an SD fence has left is what the FIFO buffer exists to bound).
func (n *Node) clearWB() {
	if k := n.Cache.WBClear(); n.Obs != nil {
		n.Obs.Emit(probe.Event{Kind: probe.WBDrain, Node: n.ID, Arg: int64(k)})
	}
}
