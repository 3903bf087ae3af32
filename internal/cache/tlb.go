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
//     reads — no invented value, no fault), the entry's Base keeps the old
//     buffer reachable, and the re-check discards whatever was read. So
//     ordinary builds refill and rebind published buffers in place too. A
//     race-detector build does the one thing differently: it leaves a
//     published buffer to the stale entries and refills a fresh one, so the
//     detector never sees the discarded load beside a plain store. Nothing
//     else depends on the build.
//
//     Frames also outlive their cluster (mem.GetFrame/PutFrame), and that
//     keeps the pillar sound as well. A frame leaves its slot only in
//     PutFrames, which core.Cluster.Close calls after Run has returned:
//     every thread of the run, and every TLB that could hold an entry into
//     the frame, is gone, so another cluster's refill of the frame has no
//     speculative reader at all. And a race-detector refill's abandoned
//     published buffer is never handed back, because PutFrames returns only
//     the frames slots hold: the stale entries that keep it reachable never
//     share it with anyone's plain stores.
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
// What a hit touches. Load, Gather and Store read the TLB header (page shift,
// page mask and the CacheHit cost, all copied in when the TLB is built), the
// direct-mapped entry, the line's LineSync, the data word and the thread's
// Proc — and nothing else: no Node, Space, Cache, Fabric or Probes. The
// coherence layer is entered only when they report a miss.
//
// The virtual-time cost model is unchanged by construction: a hit performs
// exactly the clock advance and hit count of a locked hit (Gather adds up a
// run's and charges them when the run ends). A locked hit also
// does p.AdvanceTo(slot.ReadyAt); a TLB hit has no such step, and needs none,
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
	"sync"
	"sync/atomic"
	"unsafe"

	"argo/internal/sim"
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
var tlbPool sync.Pool

// NewTLB returns an empty TLB for this cache's page geometry whose hits cost
// hit virtual nanoseconds each: a released one when there is one, else a new
// one. Word-granular lock-free access needs whole words inside one page; for a
// page size that is not a multiple of 8 there is no TLB (nil), which confines
// every access to the locked path.
func (c *Cache) NewTLB(hit sim.Time) *TLB {
	if c.PageSize&7 != 0 {
		return nil
	}
	t, ok := tlbPool.Get().(*TLB)
	if !ok {
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

// load is the validated word load Load and Gather share: the direct-mapped
// probe and the seqlock — two generation loads bracketing one atomic word
// load — for the 8-byte-aligned global address addr. When ok, the generation
// was stable across the load, so v is the page content a locked hit would
// have copied; ok is false when the thread holds no valid entry for addr's
// page. The caller charges the hit.
func (t *TLB) load(addr int64) (v uint64, ok bool) {
	page := int(addr >> (t.shift & 63))
	e := &t.e[page&(tlbSize-1)]
	if e.Page == page {
		if g := e.Sync.Gen.Load(); g == e.G {
			v = atomic.LoadUint64((*uint64)(unsafe.Add(e.Base, addr&t.mask)))
			if e.Sync.Gen.Load() == g {
				return v, true
			}
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

// Gather is the run form of Load: for each idx[k] in order it loads the word
// at base+8*idx[k] exactly as Load would and stores it in dst[k]
// (len(dst) >= len(idx)), stops at the first element that does not validate,
// and only then charges p the n hits it served, in one step. It returns n;
// dst[n:] is not written. Hits only add to a clock nothing else reads before
// the run ends, so p is where n Loads would have left it.
func (t *TLB) Gather(p *sim.Proc, base int64, idx []int32, dst []float64) int {
	if t == nil || base&7 != 0 {
		return 0
	}
	dst = dst[:len(idx)]
	n := 0
	for ; n < len(idx); n++ {
		v, ok := t.load(base + int64(idx[n])*8)
		if !ok {
			break
		}
		dst[n] = math.Float64frombits(v)
	}
	p.Hits += int64(n)
	p.Advance(sim.Time(n) * t.hit)
	return n
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
