package cache

// The Lynx access-translation cache: a small per-thread direct-mapped table
// of page → cached-slot entries that lets the per-access hot path skip the
// line mutex entirely on hits. Entries are validated seqlock-style against a
// per-line generation counter; every protocol transition that could make an
// entry unsafe — refill, invalidation, downgrade (Dirty→Clean), checkpoint,
// phase reset, crash wipe — bumps the generation under the line lock, so a
// stale entry can never serve a wiped, re-fetched or re-classified page.
//
// Soundness rests on three pillars:
//
//  1. DRF programs. Application threads never access the same word
//     concurrently without synchronization, and every synchronization point
//     runs fences under line locks. A validated hit therefore reads or
//     writes bytes no other thread is touching; the lock the slow path took
//     only ever protected protocol metadata for such accesses.
//  2. Generation counter. Readers load the word and then the generation
//     (both atomics); mutators bump the generation before touching anything.
//     A word is returned only when the generation read after its load still
//     equals the entry's fill-time G, and for such a load no refill store can
//     have reached the buffer: Gen.Add is a full barrier that precedes the
//     first refill store, so a load that observed one would also observe the
//     bumped generation at the re-check. The re-check alone decides because
//     Gen only grows: the generation at the instant of the load lies between
//     G, read at fill time, and the re-check's value, so a re-check that
//     reads G means the generation was G throughout — what a bracket of two
//     generation loads that both read G accepts, with one load fewer.
//
//     That is what lets a refill be a plain memmove into the slot's existing
//     buffer, whichever page it held before (PrepareRefill). The published
//     bit, set by FillTLB under the line lock, separates two cases. A buffer
//     no TLB entry has ever captured cannot be loaded from lock-free, so
//     refilling or rebinding it in place needs no argument at all. A
//     published buffer may still receive a speculative load: from a reader
//     whose bump lands between its load and its re-check, or from a reader
//     whose entry went stale before the load but still names the page (the
//     load precedes the only generation check). That load races the memmove,
//     and it is harmless: an aligned word read observes some value that was
//     written to the word (the Go memory model's guarantee for word-sized
//     reads — no invented value, no fault), the entry's Base keeps the old
//     buffer reachable, and the re-check discards whatever was read. So
//     ordinary builds refill and rebind published buffers in place too. A
//     race-detector build does the one thing differently: it never refills a
//     published buffer in place, but leaves it to the stale entries and
//     refills a fresh one, so the detector never sees a discarded load beside
//     a plain refill store. Only the spare frame below also depends on the
//     build.
//
//     A refill may also store nothing at all (Slot.Refill): a frame that
//     still holds the page at its current home version is not copied again
//     (mem.Space.Refill). A version that has not moved means no writer has
//     taken the page's home lock since the frame's copy was made, for every
//     home writer moves it under that lock before it writes; and a frame with
//     a version has not been written since, for the slot forgets the version
//     at its one Clean→Dirty step (EnsureTwin), before any local store, and
//     on a crash wipe. A conflict refill of a slot whose frame holds another
//     page swaps Data with the slot's spare frame instead of overwriting it,
//     so the evicted copy stays whole for the page's return. Stale TLB
//     entries may therefore name either frame; the generation bump still
//     comes before the swap, so a stale entry's load is discarded by its
//     re-check, and a store through a stale entry never lands (pillar 3).
//     A race-detector build never swaps, so it keeps the rule above.
//
//     Frames also outlive their cluster (mem.GetFrame/PutFrame), and that
//     keeps the pillar sound as well. A frame leaves its slot only when the
//     cache's Free resets the slot's line chunk — its data, twin and spare
//     frames alike — and core.Cluster.Close calls
//     Free after Run has returned: every thread of the run, and every TLB
//     that could hold an entry into the frame, is gone, so another cluster's
//     refill of the frame has no speculative reader at all. And a
//     race-detector refill's abandoned published buffer is never handed back,
//     because the reset returns only the frames slots hold: the stale entries
//     that keep it reachable never share it with anyone's plain stores.
//  3. Active-writer drain. A fast-path dirty write announces itself on the
//     line's Act counter before validating and retracts after storing.
//     BumpGen spins until Act is zero after bumping, so by the time a
//     fence (or eviction) reads the buffer for its diff, every fast store
//     that validated against the old generation has landed and is
//     happens-before-visible. No release consistency write can be lost. The
//     same drain fences fast-path writers off a recycled buffer: a store
//     through a stale entry either completed before BumpGen returned —
//     before the refill's first byte — or fails its validation and never
//     happens, so no stale store can land in a rebound buffer.
//
//     The store itself is a plain store. Everything that reads the word from
//     another goroutine is ordered behind the Act release that follows it:
//     the diff and the refill run after BumpGen has seen Act at zero, and
//     any other thread's access of the same word is separated from it by an
//     application synchronization point (DRF), which is a host-level
//     happens-before edge as well. The one reader that is not ordered is a
//     speculative Load of the same word by another thread, and that is an
//     application data race, which pillar 1 excludes. An atomic store would buy nothing and costs a third locked
//     instruction per hit (Go compiles it to XCHG).
//
// What a hit touches. Load, SpMV and Store read the TLB header (page shift,
// page mask and the CacheHit cost, all copied in when the TLB is built), the
// direct-mapped entry, the line's LineSync, the data word and the thread's
// Proc (SpMV also its own stack table of page bases) — and nothing else: no
// Node, Space, Cache, Fabric or Probes. The coherence layer is entered only
// when they report a miss.
//
// The virtual-time cost model is unchanged by construction: a hit performs
// exactly the clock advance and hit count of a locked hit (SpMV adds up those
// of the rows it completes and charges them when it returns). A locked hit
// also does p.AdvanceTo(slot.ReadyAt); a TLB hit has no such step, and needs none,
// because it could never fire. An entry is private to one thread and is only
// written by FillTLB, on the locked path, after that same thread has done
// p.AdvanceTo(s.ReadyAt) under the line lock — so at fill time the thread's
// clock is already at or past the slot's ReadyAt. ReadyAt changes only in a
// refill, which bumps the generation first and so kills the entry. And an
// application thread's clock never runs backwards: Advance rejects negative
// steps, AdvanceTo only moves forward, SetNow is called only on the fence
// sweep's private clones, and every Run builds fresh Procs and hands each
// thread an empty TLB: a new one, or one a finished Run released, which
// Release flushed. Hence now >= ReadyAt on every later hit through the entry,
// which is why an entry carries no ReadyAt at all.
//
// The Argoscope hit counter is not bumped per hit either. Proc.Hits is the
// per-hit count; the coherence layer publishes its growth to the cache's
// probe at the thread's fences and core does so once more when a Run ends
// (coherence.Node.PublishHits), so the counter's total after a Run is what
// per-hit increments would have produced.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"

	"argo/internal/sim"
	"argo/internal/sparse"
)

// Global memory is little-endian 8-byte words (the locked paths and the byte
// accessors read it with encoding/binary), while Load and Store below — and
// core's bulk views of typed slices — access the same words in host order. The
// two agree on little-endian hosts only, so the simulator refuses to start on
// any other: one check, here, for every package above the page cache.
func init() {
	if !hostLittleEndian() {
		panic("argo: little-endian hosts only: the page cache reads global memory's little-endian words with native loads")
	}
}

// hostLittleEndian reports whether the host stores a word's low byte first.
func hostLittleEndian() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 }

// LineSync is the seqlock state of one cache line, padded so neighbouring
// lines' counters do not false-share.
type LineSync struct {
	// Gen counts invalidating transitions of the line. Bumped under the
	// line lock; read lock-free by TLB validation.
	Gen atomic.Uint64
	// Act counts fast-path writers currently between validation and their
	// store. Mutators drain it to zero after bumping Gen.
	Act atomic.Int64
	_   [48]byte
}

// BumpGen invalidates all TLB entries of the line and waits out any fast-path
// writer that validated against the old generation. Call it before mutating
// slot state or reading slot data for a diff. Double bumps are harmless
// (monotonic).
func (ln *Line) BumpGen() {
	ls := ln.sy
	ls.Gen.Add(1)
	// A fast-path writer holds Act only across one validation and one
	// store — no locks, no waiting — so this drains in nanoseconds;
	// the yield guards against a preempted writer on an oversubscribed host.
	for spin := 0; ls.Act.Load() != 0; spin++ {
		if spin&63 == 63 {
			runtime.Gosched()
		}
	}
}

// lineGen returns line l's current generation, lock or no lock (tests).
func (c *Cache) lineGen(l int) uint64 {
	if ln := c.lines.Peek(l); ln != nil {
		return ln.sy.Gen.Load()
	}
	return 0
}

// tlbSize is the number of direct-mapped entries per thread. A power of two;
// 256 entries cover 1 MB of 4 KB pages, comfortably more than the working
// set between two synchronization points for the paper's workloads.
const tlbSize = 256

// TLBEntry caches the translation of one page. All fields are thread-local
// copies made under the line lock at fill time; Sync is the live per-line
// seqlock state they are validated against.
type TLBEntry struct {
	Page  int            // global page number, or -1
	G     uint64         // line generation at fill time
	Base  unsafe.Pointer // the slot's buffer at fill time (may since hold another page; Gen tells)
	Sync  *LineSync
	Dirty bool // slot was Dirty at fill time (enables the write fast path)
}

// TLB is one thread's access-translation cache. It must only be used by the
// thread that owns it. A nil *TLB is valid and never hits.
type TLB struct {
	// Fixed when the TLB is built, so a hit reads nothing outside it.
	shift uint     // log2 of the page size; used as shift&63, which spares the oversized-shift check
	mask  int64    // page size - 1
	hit   sim.Time // virtual cost of one hit (the fabric's CacheHit)

	e [tlbSize]TLBEntry
}

// tlbPool holds the flushed TLBs that Release handed back, for the next
// NewTLB of this cluster or another.
var tlbPool sparse.FreeList[TLB]

// NewTLB returns an empty TLB for this cache's page geometry whose hits cost
// hit virtual nanoseconds each: a released one when there is one, else a new
// one. Word-granular lock-free access needs whole words inside one page; for a
// page size that is not a multiple of 8 there is no TLB (nil), which confines
// every access to the locked path.
func (c *Cache) NewTLB(hit sim.Time) *TLB {
	if c.PageSize&7 != 0 {
		return nil
	}
	t := tlbPool.Get()
	if t == nil {
		t = new(TLB)
		t.flush()
	}
	t.shift, t.mask, t.hit = uint(bits.TrailingZeros(uint(c.PageSize))), int64(c.PageSize-1), hit
	return t
}

// Release flushes t and hands it back for a later NewTLB. The caller gives t
// up: its thread has stopped and nothing uses t again. A nil t is ignored.
func (t *TLB) Release() {
	if t != nil {
		t.flush()
		tlbPool.Put(t)
	}
}

// Entry returns the direct-mapped entry page falls into.
func (t *TLB) Entry(page int) *TLBEntry { return &t.e[page&(tlbSize-1)] }

// flush vacates every entry (tests and harnesses; protocol transitions
// invalidate through the generation counter instead).
func (t *TLB) flush() {
	for i := range t.e {
		t.e[i] = TLBEntry{Page: -1}
	}
}

// load is Load's validated word load: the direct-mapped probe, one atomic
// word load, and one generation load after it, for the 8-byte-aligned global
// address addr. When ok, the line's generation still equals the entry's
// fill-time G after the load, so v is the page content a locked hit would
// have copied (pillar 2); ok is false when the thread holds no valid entry for
// addr's page. The caller charges the hit.
func (t *TLB) load(addr int64) (v uint64, ok bool) {
	page := int(addr >> (t.shift & 63))
	e := &t.e[page&(tlbSize-1)]
	if e.Page == page {
		v = atomic.LoadUint64((*uint64)(unsafe.Add(e.Base, addr&t.mask)))
		if e.Sync.Gen.Load() == e.G {
			return v, true
		}
	}
	return 0, false
}

// Load is the read fast path: it returns the little-endian word at the
// 8-byte-aligned global address addr if the thread holds a valid entry for
// its page, charging p one hit. ok is false — and p untouched — when the
// access has to take the coherence layer's locked path.
func (t *TLB) Load(p *sim.Proc, addr int64) (v uint64, ok bool) {
	if t == nil || addr&7 != 0 {
		return 0, false
	}
	if v, ok = t.load(addr); ok {
		p.Hits++
		p.Advance(t.hit)
		return v, true
	}
	return 0, false
}

// SpMV is the fused run form of Load for a CSR sparse product: for rows
// i = lo, lo+1, … it sets q[i-lo] to the sum over k in [rowPtr[i], rowPtr[i+1])
// of val[k]·x[colIdx[k]], x being the n float64 words at base, each row summed
// left to right from zero — the bits of the one-row loop over Load. It checks
// each page of x once per call, not once per word. A table on the call's stack
// holds the buffers of the pages the call has opened; a row that reads a page
// not in it opens, from their TLB entries, every page the rest of the row
// reads, and the call stops at the first row that reads a page whose entry is
// vacant, holds another page or is stale, or an index outside x's pages. That
// row and the rows behind it are left unwritten. Before it charges anything,
// SpMV re-loads every opened page's generation. Gen only grows, so a re-check
// that still reads the entry's G covers every word loaded from the page before
// it (pillar 2 applied once per call). If one does not, a line was invalidated
// during the call, and SpMV discards the call whole: it returns lo, charges
// nothing, and q from lo on may hold discarded sums. Otherwise it charges p the
// hits of the rows it completed, in one step, and returns the first row it did
// not complete (hi when every row completed). Hits only add to a clock nothing
// else reads before the call ends, so p is where one Load per completed element
// would have left it. When x spans more than tlbSize pages the call completes
// nothing, and every row takes the caller's exact path.
func (t *TLB) SpMV(p *sim.Proc, base int64, n int, rowPtr, colIdx []int32, val []float64, lo, hi int, q []float64) int {
	if t == nil || base&7 != 0 {
		return lo
	}
	// In words: x[0] is word w0 of page first, and a page holds wm+1 words.
	ws, wm := (t.shift-3)&63, int(t.mask>>3)
	first, w0 := int(base>>(t.shift&63)), int(base&t.mask)>>3
	np := (w0 + n + wm) >> ws
	if uint(np) > tlbSize {
		return lo
	}
	// pages[j] is the buffer of page first+j once the call has opened it.
	// Only x's np pages are ever opened, so the slots behind them stay nil.
	var pages [tlbSize]unsafe.Pointer
	tab, i := pages[:np], lo
	for ; i < hi; i++ {
		cs, vs := colIdx[rowPtr[i]:rowPtr[i+1]], val[rowPtr[i]:rowPtr[i+1]]
		s, k := sum(&pages, w0, ws, wm, cs, vs, 0)
		if k < len(cs) {
			// The row reads a page the call has not opened: open every page
			// the rest of the row reads, and the rest sums without a stop.
			if !t.openAll(tab, first, w0, ws, cs[k:]) {
				break
			}
			s, _ = sum(&pages, w0, ws, wm, cs[k:], vs[k:], s)
		}
		q[i-lo] = s
	}
	for pi, b := range tab {
		if b != nil && t.open(first+pi) == nil {
			return lo
		}
	}
	hits := int64(rowPtr[i] - rowPtr[lo])
	p.Hits += hits
	p.Advance(sim.Time(hits) * t.hit)
	return i
}

// sum is SpMV's kernel: it adds vs[k]·x[cs[k]] to s for k = 0, 1, … while the
// word's page is open in pages, and returns the sum and the number of words
// it added. x[0] is word w0 of the page in pages[0], and a page holds wm+1
// words, 1<<ws. It is kept out of line: inlined into SpMV's row loop, k and
// the word's index went through the stack on every step.
//
//go:noinline
func sum(pages *[tlbSize]unsafe.Pointer, w0 int, ws uint, wm int, cs []int32, vs []float64, s float64) (float64, int) {
	tab, vs := pages[:], vs[:len(cs)]
	for k, c := range cs {
		w := w0 + int(c)
		pi := uint(w) >> (ws & 63)
		if pi >= uint(len(tab)) || tab[pi] == nil {
			return s, k
		}
		s += vs[k] * math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Add(tab[pi], (w&wm)*8))))
	}
	return s, len(cs)
}

// openAll opens into tab every page the words at cs read that it does not
// hold yet, and reports whether it could: it cannot at an index outside tab's
// pages or at a page open refuses. Slot j of tab is page first+j, x[0] is word
// w0 of page first, and a page holds 1<<ws words.
func (t *TLB) openAll(tab []unsafe.Pointer, first, w0 int, ws uint, cs []int32) bool {
	for _, c := range cs {
		pi := uint(w0+int(c)) >> (ws & 63)
		if pi >= uint(len(tab)) {
			return false
		}
		if tab[pi] == nil {
			if tab[pi] = t.open(first + int(pi)); tab[pi] == nil {
				return false
			}
		}
	}
	return true
}

// open returns the buffer of page's TLB entry if the entry holds page at its
// fill-time generation, and nil otherwise: SpMV's check of a page, made when
// the call opens the page and again after its last load.
func (t *TLB) open(page int) unsafe.Pointer {
	if e := &t.e[page&(tlbSize-1)]; e.Page == page && e.Sync.Gen.Load() == e.G {
		return e.Base
	}
	return nil
}

// Store is the write fast path: it stores v at the 8-byte-aligned global
// address addr if the thread holds a valid entry for its page that was filled
// while the page was dirty — the write-miss protocol (twin, registration,
// write buffer) was already paid, so a locked hit would do nothing more. The
// thread announces itself on the line's active-writer counter, validates the
// generation, and stores; it reports false, with p untouched, otherwise.
func (t *TLB) Store(p *sim.Proc, addr int64, v uint64) bool {
	if t == nil || addr&7 != 0 {
		return false
	}
	page := int(addr >> (t.shift & 63))
	e := &t.e[page&(tlbSize-1)]
	if e.Page != page || !e.Dirty {
		return false
	}
	sy := e.Sync
	sy.Act.Add(1)
	if sy.Gen.Load() != e.G {
		sy.Act.Add(-1)
		return false
	}
	// Validated: any later downgrade bumps the generation and then drains
	// Act, so this store is diffed before the page turns clean — the write
	// cannot be lost. A plain store: see pillar 3.
	*(*uint64)(unsafe.Add(e.Base, addr&t.mask)) = v
	sy.Act.Add(-1)
	p.Hits++
	p.Advance(t.hit)
	return true
}

// wordAligned reports whether b starts on an 8-byte boundary (the fast path
// accesses whole words through unsafe pointers, which requires alignment).
func wordAligned(b []byte) bool {
	return len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))&7 == 0
}

// FillTLB publishes slot s of the line into tb after a locked access, so the
// thread's next accesses to the page can validate lock-free. The calling
// thread's clock must already be at or past s.ReadyAt (the locked paths'
// p.AdvanceTo(s.ReadyAt) — the entry keeps no ReadyAt of its own). A slot with
// an unaligned buffer is never published.
func (ln *Line) FillTLB(tb *TLB, s *Slot) {
	if tb == nil || s.Page < 0 || s.St == Invalid || !wordAligned(s.Data) {
		return
	}
	s.published = true
	*tb.Entry(s.Page) = TLBEntry{
		Page:  s.Page,
		G:     ln.sy.Gen.Load(),
		Base:  unsafe.Pointer(&s.Data[0]),
		Sync:  ln.sy,
		Dirty: s.St == Dirty,
	}
}
