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
//  2. Generation counter. Readers load the generation, load the word, and
//     load the generation again (all atomics); mutators bump the generation
//     before touching anything. Only a load bracketed by two equal
//     generations is ever returned, and for such a load no refill store can
//     have reached the buffer: Gen.Add is a full barrier that precedes the
//     first refill store, so a load that observed one would also observe the
//     bumped generation at its re-check.
//
//     That is what lets a refill be a plain memmove into the slot's existing
//     buffer, whichever page it held before (PrepareRefill). The published
//     bit, set by FillTLB under the line lock, separates two cases. A buffer
//     no TLB entry has ever captured cannot be loaded from lock-free, so
//     refilling or rebinding it in place needs no argument at all. A
//     published buffer may still receive the speculative load of a reader
//     that validated Gen just before the bump; that load races the memmove,
//     and it is harmless: an aligned word read observes some value that was
//     written to the word (the Go memory model's guarantee for word-sized
//     reads — no invented value, no fault), the entry's slice keeps the old
//     buffer reachable, and the re-check discards whatever was read. So
//     ordinary builds refill and rebind published buffers in place too. A
//     race-detector build does the one thing differently: it leaves a
//     published buffer to the stale entries and refills a fresh one, so the
//     detector never sees the discarded load beside a plain store. Nothing
//     else depends on the build.
//  3. Active-writer drain. A fast-path dirty write announces itself on the
//     line's Act counter before validating and retracts after storing.
//     BumpLineGen spins until Act is zero after bumping, so by the time a
//     fence (or eviction) reads the buffer for its diff, every fast store
//     that validated against the old generation has landed and is
//     happens-before-visible. No release consistency write can be lost. The
//     same drain fences fast-path writers off a recycled buffer: a store
//     through a stale entry either completed before BumpLineGen returned —
//     before the refill's first byte — or fails its validation and never
//     happens, so no stale store can land in a rebound buffer.
//
// The virtual-time cost model is unchanged by construction: a fast-path hit
// performs exactly the clock advances, hit counters and metric increments of
// a locked hit, and anything else falls back to the locked slow path.

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"argo/internal/sim"
)

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

// Sync returns line l's seqlock state (TLB fills cache the pointer).
func (c *Cache) Sync(l int) *LineSync { return &c.lineSync[l] }

// BumpLineGen invalidates all TLB entries of line l and waits out any
// fast-path writer that validated against the old generation. The caller
// must hold l's line lock and call this before mutating slot state or
// reading slot data for a diff. Double bumps are harmless (monotonic).
func (c *Cache) BumpLineGen(l int) {
	ls := &c.lineSync[l]
	ls.Gen.Add(1)
	// A fast-path writer holds Act only across one validation and one
	// atomic store — no locks, no waiting — so this drains in nanoseconds;
	// the yield guards against a preempted writer on an oversubscribed host.
	for spin := 0; ls.Act.Load() != 0; spin++ {
		if spin&63 == 63 {
			runtime.Gosched()
		}
	}
}

// LineGen returns line l's current generation (tests).
func (c *Cache) LineGen(l int) uint64 { return c.lineSync[l].Gen.Load() }

// TLBSize is the number of direct-mapped entries per thread. A power of two;
// 256 entries cover 1 MB of 4 KB pages, comfortably more than the working
// set between two synchronization points for the paper's workloads.
const TLBSize = 256

// TLBEntry caches the translation of one page. All fields are thread-local
// copies made under the line lock at fill time; Sync is the live per-line
// seqlock state they are validated against.
type TLBEntry struct {
	Page    int    // global page number, or -1
	G       uint64 // line generation at fill time
	Dirty   bool   // slot was Dirty at fill time (enables the write fast path)
	ReadyAt sim.Time
	Data    []byte // the slot's buffer at fill time (may since hold another page; Gen tells)
	Sync    *LineSync
}

// TLB is one thread's access-translation cache. It must only be used by the
// thread that owns it.
type TLB struct {
	e [TLBSize]TLBEntry
}

// NewTLB returns an empty TLB (all entries vacant).
func NewTLB() *TLB {
	t := &TLB{}
	for i := range t.e {
		t.e[i].Page = -1
	}
	return t
}

// Entry returns the direct-mapped entry page falls into.
func (t *TLB) Entry(page int) *TLBEntry { return &t.e[page&(TLBSize-1)] }

// Flush vacates every entry (tests and harnesses; protocol transitions
// invalidate through the generation counter instead).
func (t *TLB) Flush() {
	for i := range t.e {
		t.e[i] = TLBEntry{Page: -1}
	}
}

// WordAligned reports whether b starts on an 8-byte boundary (the fast path
// uses word atomics through unsafe pointers, which require alignment).
func WordAligned(b []byte) bool {
	return len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))&7 == 0
}

// FillTLB publishes slot s of line l into tb after a locked access, so the
// thread's next accesses to the page can validate lock-free. The caller must
// hold l's line lock. Slots whose geometry cannot support word-atomic access
// (page size not a multiple of 8, or an unaligned buffer) are never
// published, which confines every later access to the locked path.
func (c *Cache) FillTLB(tb *TLB, l int, s *Slot) {
	if tb == nil || s.Page < 0 || s.St == Invalid || s.Data == nil {
		return
	}
	if c.PageSize&7 != 0 || !WordAligned(s.Data) {
		return
	}
	s.published = true
	*tb.Entry(s.Page) = TLBEntry{
		Page:    s.Page,
		G:       c.lineSync[l].Gen.Load(),
		Dirty:   s.St == Dirty,
		ReadyAt: s.ReadyAt,
		Data:    s.Data,
		Sync:    &c.lineSync[l],
	}
}
