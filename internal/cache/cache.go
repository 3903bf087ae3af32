// Package cache implements Argo's per-node page cache: a direct-mapped
// cache of remote pages shared by all threads of a node, organized in
// "cache lines" of several consecutive pages (fetching a whole line is the
// paper's prefetching mechanism), plus the FIFO write buffer that drains
// dirty pages to their homes between synchronization points.
//
// The cache is a passive container: the coherence layer (package coherence)
// drives all protocol decisions. Locking is per line; callers lock a line,
// inspect and mutate its slots, and unlock. The write buffer only records
// page numbers — writebacks themselves are performed by the coherence layer
// so that it can choose diff vs full-page transmission.
package cache

import (
	"fmt"
	"sync"

	"argo/internal/mem"
	"argo/internal/racetag"
	"argo/internal/sim"
	"argo/internal/sparse"
)

// State is the local state of a cached page.
type State uint8

const (
	// Invalid: the slot holds no page (or a dropped one).
	Invalid State = iota
	// Clean: the page matches what was fetched; reads hit, a write is a
	// write miss (twin creation + writer registration).
	Clean
	// Dirty: the page has local writes not yet downgraded to its home.
	Dirty
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Clean:
		return "C"
	case Dirty:
		return "D"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Slot holds one cached page. Access only while holding the line lock.
type Slot struct {
	Page int // global page number, or -1
	St   State
	// published is set by FillTLB once some thread's TLB entry holds Data: a
	// lock-free reader validating a stale entry may from then on issue a
	// speculative (always discarded) load into the buffer. PrepareRefill is
	// its one reader, in race-detector builds only (see tlb.go, pillar 2).
	published bool
	// Data is the page content: a frame from mem's free frames, taken at the
	// slot's first refill and kept across refills until the cache's Free.
	Data    []byte
	Twin    []byte   // pristine copy for diffing; non-nil only while Dirty
	ReadyAt sim.Time // virtual time at which the content became available

	// twinBuf is the slot's twin frame, taken at its first write miss and
	// kept across DropTwin and Invalidate until Free; Twin aliases it while
	// Dirty.
	twinBuf []byte

	// held names the home copy Data holds, untouched since Refill made or
	// kept it; the slot forgets it when it turns dirty (EnsureTwin) and on a
	// crash wipe (Reset). spare is a second frame, taken at the slot's first
	// conflict refill and kept until Free, and spareHeld names what it holds:
	// a conflict swaps the two frames (PrepareRefill), so the evicted page's
	// copy waits in the spare for the page's return.
	held      homeCopy
	spare     []byte
	spareHeld homeCopy
}

// homeCopy names a frame's content: page at home version ver
// (mem.Space.Refill). The zero homeCopy names nothing.
type homeCopy struct {
	page int
	ver  uint64
}

// of returns the version of page the frame holds, 0 when it holds none.
func (h homeCopy) of(page int) uint64 {
	if h.page != page {
		return 0
	}
	return h.ver
}

// Line is everything the cache keeps per line. Its seqlock state sits apart,
// in a padded array of the chunk's own: lock-free readers poll Gen while lock
// holders write the mutex, and a LineSync inside the record shared a 128-byte
// prefetch pair with that mutex (DESIGN § 16 has the measurement).
//
// LockLine is the only way to a Line, so whoever has one holds its lock —
// which everything that takes a *Line requires — until Unlock.
type Line struct {
	mu    sync.Mutex
	idx   int       // the line's index in the cache
	used  bool      // on the used list; written under mu and usedMu
	sy    *LineSync // in the chunk's LineSync array
	slots []Slot    // PagesPerLine slots, carved from the chunk's slot array
}

// Slots returns the line's slots.
func (ln *Line) Slots() []Slot { return ln.slots }

// Unlock releases the line lock.
func (ln *Line) Unlock() { ln.mu.Unlock() }

// Cache is one node's page cache.
type Cache struct {
	Node         int
	PageSize     int
	Lines        int
	PagesPerLine int

	lines sparse.Array[Line]

	// FetchGate serializes page fetches of this node in virtual time,
	// modeling the prototype's MPI limitation that only one thread can use
	// the interconnect at a time.
	FetchGate sim.Resource

	// The write buffer is a ring of page numbers that grows with use, up to
	// wbCap+1 (one spare so a push can land before the overflow victim pops);
	// entries may be stale.
	wbMu   sync.Mutex
	wbCap  int
	wbRing []int // nil until the first push
	wbHead int   // index of the oldest entry
	wbLen  int

	// Occupied-line tracking: fences sweep only lines that ever held a
	// page since the last sweep found them empty. A line's used flag is
	// written under its line lock and usedMu (in that order), so either lock
	// makes it stable to read.
	usedMu   sync.Mutex
	usedList []int
}

// New creates a cache of lines cache lines of pagesPerLine consecutive
// pages each, with a write buffer of wbCapacity pages.
func New(node, pageSize, lines, pagesPerLine, wbCapacity int) *Cache {
	if lines <= 0 || pagesPerLine <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry lines=%d pagesPerLine=%d", lines, pagesPerLine))
	}
	if wbCapacity <= 0 {
		wbCapacity = 1
	}
	c := &Cache{
		Node:         node,
		PageSize:     pageSize,
		Lines:        lines,
		PagesPerLine: pagesPerLine,
		wbCap:        wbCapacity,
	}
	c.lines = sparse.Make(lines, linePool, c.initLines)
	return c
}

// linePool recycles line chunks, LineSync and slot arrays included, from a
// closed cluster's caches to the next cluster's (Free).
var linePool = sparse.NewPool(resetLines)

// initLines prepares a chunk of lines, new or recycled, for this cache: every
// one of its ChunkLen lines gets its index, a LineSync and PagesPerLine slots,
// so the chunk stays whole in whichever cache takes it next. A recycled chunk
// keeps its LineSync array, and its slot array when that is wide enough.
func (c *Cache) initLines(base int, chunk []Line) {
	ppl := c.PagesPerLine
	if chunk[0].sy == nil {
		syncs := new([sparse.ChunkLen]LineSync)
		for i := range chunk {
			chunk[i].sy = &syncs[i]
		}
	}
	if cap(chunk[0].slots) < ppl {
		slots := make([]Slot, len(chunk)*ppl)
		for i := range slots {
			slots[i].Page = -1
		}
		for i := range chunk {
			chunk[i].slots = slots[i*ppl : (i+1)*ppl : (i+1)*ppl]
		}
	}
	for i := range chunk {
		chunk[i].idx = base + i
		chunk[i].slots = chunk[i].slots[:ppl]
	}
}

// resetLines brings a freed chunk back to what initLines leaves: every slot,
// up to the slot array's capacity, empty, unpublished and frameless — its
// data, twin and spare frames handed back (mem.PutFrame) — and the line off
// the used list.
// Act is zero already: no thread runs once a cache is freed. The generation
// moves on rather than back, so no TLB entry filled before the reset could
// validate after it.
func resetLines(chunk *[sparse.ChunkLen]Line) {
	for i := range chunk {
		ln := &chunk[i]
		ln.used = false
		ln.sy.Gen.Add(1)
		slots := ln.slots[:cap(ln.slots)]
		for j := range slots {
			mem.PutFrame(slots[j].Data)
			mem.PutFrame(slots[j].twinBuf)
			mem.PutFrame(slots[j].spare)
			slots[j] = Slot{Page: -1}
		}
	}
}

// Free hands every slot's data, twin and spare frame back, whatever state the
// slot is in, and the cache's line chunks to the next cluster's caches,
// walking only the lines that ever came into being; afterwards the cache
// holds no line. The caller guarantees that no thread runs and no TLB built over the
// cache is used again (core.Cluster.Close): only then can no stale entry load
// from a frame another cluster is refilling. A frame a race-detector refill
// left to stale entries is no slot's any more, so it is never handed back.
func (c *Cache) Free() { c.lines.Free() }

// MarkLineUsed records that ln holds at least one page.
func (c *Cache) MarkLineUsed(ln *Line) {
	if ln.used {
		return
	}
	c.usedMu.Lock()
	ln.used = true
	c.usedList = append(c.usedList, ln.idx)
	c.usedMu.Unlock()
}

// AppendUsedLines appends the occupied line indices, in first-use order, to
// buf and returns it — a snapshot in the caller's buffer, so a fence that
// keeps one allocates nothing. Fence sweeps cut the snapshot into shards and
// lock each line themselves.
func (c *Cache) AppendUsedLines(buf []int) []int {
	c.usedMu.Lock()
	buf = append(buf, c.usedList...)
	c.usedMu.Unlock()
	return buf
}

// RetireLineIfEmpty clears ln's used flag if no slot holds a valid page
// (lock order: line lock → usedMu).
func (c *Cache) RetireLineIfEmpty(ln *Line) {
	if !ln.used {
		return
	}
	for i := range ln.slots {
		if s := &ln.slots[i]; s.Page >= 0 && s.St != Invalid {
			return
		}
	}
	c.usedMu.Lock()
	ln.used = false
	c.usedMu.Unlock()
}

// CompactUsedList drops retired lines from the used list after a sweep:
// entries whose flag is still set are kept (including lines refilled
// concurrently; rare duplicates are harmless).
func (c *Cache) CompactUsedList() {
	c.usedMu.Lock()
	kept := c.usedList[:0]
	for _, l := range c.usedList {
		if c.lines.Peek(l).used { // a listed line was locked once, so it exists
			kept = append(kept, l)
		}
	}
	c.usedList = kept
	c.usedMu.Unlock()
}

// LineOf returns the cache line index page maps to: consecutive pages share
// a line (line base = page rounded down to a multiple of PagesPerLine), and
// lines are direct-mapped.
func (c *Cache) LineOf(page int) int {
	return (page / c.PagesPerLine) % c.Lines
}

// LineBase returns the first page of the aligned line containing page.
func (c *Cache) LineBase(page int) int {
	return page - page%c.PagesPerLine
}

// LockLine acquires the lock of line l and returns the line, which the caller
// releases with Unlock. This is where a line comes into being.
func (c *Cache) LockLine(l int) *Line {
	ln := c.lines.Peek(l)
	if ln == nil {
		ln = c.lines.At(l)
	}
	ln.mu.Lock()
	return ln
}

// SlotOf returns the slot of ln — the locked line LineOf(page) — that page
// maps to; the slot may currently hold a different page (conflict) or none.
func (c *Cache) SlotOf(ln *Line, page int) *Slot { return &ln.slots[page%c.PagesPerLine] }

// PrepareRefill gives s, whose Page the caller has just set, the Data frame
// Refill then brings up to that page's home content: its bytes may be another
// page's, of this cluster or — for a recycled frame — of a closed one. The
// caller holds the line lock and has bumped the line generation. Frames are
// reused in place — whichever page they last held — so a steady-state miss
// allocates nothing, and a frame that still holds the page at its current
// version is not copied again:
//
//   - On a conflict — Data holds a copy of another page, or the spare holds
//     one of this page — Data and the spare swap, the spare taken from mem's
//     free frames at the slot's first conflict. The evicted page's copy waits
//     in the spare, and a slot that alternates between two pages copies
//     neither while their homes stand still.
//   - Otherwise Data is refilled in place.
//
// A race-detector build never swaps, and it never refills a published buffer
// in place: the speculative load a stale TLB entry may still issue into it is
// discarded by the seqlock re-check, but the detector would report it against
// the refill's plain stores, so there the stale entries keep the old buffer
// and the refill gets another frame (see tlb.go, pillar 2).
func (c *Cache) PrepareRefill(s *Slot) {
	switch {
	case racetag.Enabled:
		if s.Data == nil || s.published {
			s.Data, s.held = mem.GetFrame(c.PageSize), homeCopy{}
			s.published = false
		}
	case s.held.ver != 0 && s.held.page != s.Page || s.spareHeld.of(s.Page) != 0:
		if s.spare == nil {
			s.spare = mem.GetFrame(c.PageSize)
		}
		s.Data, s.spare = s.spare, s.Data
		s.held, s.spareHeld = s.spareHeld, s.held
	case s.Data == nil:
		s.Data = mem.GetFrame(c.PageSize)
	}
}

// Refill brings Data, which PrepareRefill readied, up to page s.Page's home
// content in sp, copying only when Data does not already hold the page's
// current version, and reports whether it copied.
func (s *Slot) Refill(sp *mem.Space) (copied bool) {
	have := s.held.of(s.Page)
	v := sp.Refill(s.Page, s.Data, have)
	s.held = homeCopy{s.Page, v}
	return v != have
}

// EnsureTwin snapshots the slot's current data into its twin buffer, which
// the copy overwrites whole, so the frame is taken uncleared. It is the one
// Clean→Dirty step, so it is where the slot forgets which home copy Data
// held: local writes follow.
func (c *Cache) EnsureTwin(s *Slot) {
	if s.twinBuf == nil {
		s.twinBuf = mem.GetFrame(c.PageSize)
	}
	s.Twin = s.twinBuf
	copy(s.Twin, s.Data)
	s.held = homeCopy{}
}

// DropTwin retires the twin (after a writeback made the page clean). The
// frame stays with the slot for its next write miss.
func (s *Slot) DropTwin() { s.Twin = nil }

// Invalidate empties the slot. The Data and twin frames stay with it for the
// next refill and write miss.
func (s *Slot) Invalidate() {
	s.Page = -1
	s.St = Invalid
	s.Twin = nil
}

// WBPush appends page to the write buffer FIFO. If the buffer exceeds its
// capacity, the oldest entry is popped and returned with evict=true; the
// caller must write that page back (if it is still dirty).
func (c *Cache) WBPush(page int) (victim int, evict bool) {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	if c.wbLen == len(c.wbRing) {
		c.growWB()
	}
	c.wbRing[c.wbIndex(c.wbLen)] = page
	c.wbLen++
	if c.wbLen > c.wbCap {
		victim = c.wbRing[c.wbHead]
		c.wbHead = c.wbIndex(1)
		c.wbLen--
		return victim, true
	}
	return 0, false
}

// wbMinRing is the ring's length at the first push: a buffer that never holds
// more costs no more than this, whatever its capacity.
const wbMinRing = 16

// growWB replaces the full ring with one twice as long, from wbMinRing up to
// wbCap+1, holding the same entries in the same places. A ring that can grow
// has its oldest entry at index 0: the head moves only when a push overflows,
// which takes a ring already wbCap+1 long. The caller holds wbMu.
func (c *Cache) growWB() {
	ring := make([]int, min(max(2*len(c.wbRing), wbMinRing), c.wbCap+1))
	copy(ring, c.wbRing)
	c.wbRing = ring
}

// wbIndex returns the ring index of the i-th oldest entry
// (0 <= i < len(wbRing)). The caller holds wbMu.
func (c *Cache) wbIndex(i int) int {
	i += c.wbHead
	if i >= len(c.wbRing) {
		i -= len(c.wbRing)
	}
	return i
}

// WBClear empties the write buffer without materializing its contents and
// returns how many (possibly stale) entries it held. SD fences use it: they
// sweep the cache directly, so they only need the queue reset and the
// drain-size metric, not a copy of the page numbers.
func (c *Cache) WBClear() int {
	c.wbMu.Lock()
	n := c.wbLen
	c.wbHead, c.wbLen = 0, 0
	c.wbMu.Unlock()
	return n
}

// WBLen returns the current number of (possibly stale) entries.
func (c *Cache) WBLen() int {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	return c.wbLen
}

// ForEachLine runs fn, with the line's lock held, for every line that has
// ever been touched — a superset of the lines that hold a page. Lines of
// chunks nobody has touched are empty by construction and are not visited.
func (c *Cache) ForEachLine(fn func(l int, slots []Slot)) {
	c.lines.Chunks(func(base int, chunk []Line) {
		for i := range chunk {
			ln := &chunk[i]
			ln.mu.Lock()
			fn(base+i, ln.slots)
			ln.mu.Unlock()
		}
	})
}

// forEachUsedLine runs fn for every occupied line with that line's lock held,
// and retires the lines fn leaves empty — a fence sweep without the sharding,
// whose cost scales with the resident set, not with the cache geometry.
func (c *Cache) forEachUsedLine(fn func(ln *Line)) {
	for _, l := range c.AppendUsedLines(nil) {
		ln := c.LockLine(l)
		fn(ln)
		c.RetireLineIfEmpty(ln)
		ln.Unlock()
	}
	c.CompactUsedList()
}

// InvalidateAll empties the cache in one pass over the occupied lines — any
// other line holds only invalid slots: bump the generation, hand each dirty
// slot to flush (when non-nil) while its data and twin are still there, and
// invalidate. It leaves the used list empty. The write buffer and the fetch
// gate are the caller's to clear.
func (c *Cache) InvalidateAll(flush func(s *Slot)) {
	c.forEachUsedLine(func(ln *Line) {
		ln.BumpGen()
		for i := range ln.slots {
			s := &ln.slots[i]
			if flush != nil && s.Page >= 0 && s.St == Dirty {
				flush(s)
			}
			s.Invalidate()
			s.ReadyAt = 0
		}
	})
}

// Reset drops every cached page unflushed and clears the write buffer and the
// fetch gate (Cygnus crash wipes: the volatile state a node loses). Every
// frame, on a used line or not, forgets the home copy it held, so the first
// refill of each page after the wipe copies it.
func (c *Cache) Reset() {
	c.InvalidateAll(nil)
	c.ForEachLine(func(_ int, slots []Slot) {
		for i := range slots {
			slots[i].held, slots[i].spareHeld = homeCopy{}, homeCopy{}
		}
	})
	c.wbMu.Lock()
	c.wbHead, c.wbLen = 0, 0
	c.wbMu.Unlock()
	c.FetchGate.Reset()
}
