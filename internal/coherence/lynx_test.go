package coherence

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"argo/internal/cache"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/racetag"
	"argo/internal/sim"
)

// wordRig extends the basic rig with a per-proc TLB, mirroring how core
// wires one TLB per thread.
func wordRig(t *testing.T, opt Options) (*rig, []*cache.TLB) {
	t.Helper()
	r := newRig(t, opt)
	return r, []*cache.TLB{r.nodes[0].NewTLB(), r.nodes[1].NewTLB()}
}

// readWord and writeWord are a thread's scalar accessors (core.Thread.ReadU64
// and WriteU64): the TLB alone on a hit, the node's locked path otherwise.
func readWord(n *Node, p *sim.Proc, tb *cache.TLB, addr mem.Addr) uint64 {
	if v, ok := tb.Load(p, addr); ok {
		return v
	}
	return n.ReadWord(p, tb, addr)
}

func writeWord(n *Node, p *sim.Proc, tb *cache.TLB, addr mem.Addr, v uint64) {
	if !tb.Store(p, addr, v) {
		n.WriteWord(p, tb, addr, v)
	}
}

// gatherWords reads the words at idx of the 4 KB page at base through a thread's
// sparse product (core.Thread.SpMVF64) over rows of one element with
// coefficient 1, which carries each word's bits into dst[k] unchanged (the
// words under test are positive and finite): runs of rows through the TLB, the
// node's locked path for a row a call stopped at. It returns the number of
// rows the TLB completed.
func gatherWords(n *Node, p *sim.Proc, tb *cache.TLB, base mem.Addr, idx []int32, dst []float64) (fused int) {
	rowPtr, ones := make([]int32, len(idx)+1), make([]float64, len(idx))
	for k := range idx {
		rowPtr[k+1], ones[k] = int32(k+1), 1
	}
	for i := 0; i < len(idx); i++ {
		j := tb.SpMV(p, base, 4096/8, rowPtr, idx, ones, i, len(idx), dst[i:])
		fused += j - i
		if i = j; i < len(idx) {
			dst[i] = math.Float64frombits(readWord(n, p, tb, base+mem.Addr(idx[i])*8))
		}
	}
	return fused
}

func TestWordHitTakesFastPath(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(3 * 4096)
	binary.LittleEndian.PutUint64(r.space.HomeBytes(3), 77)
	if got := readWord(r.nodes[0], r.procs[0], tbs[0], addr); got != 77 {
		t.Fatalf("first read = %d, want 77", got)
	}
	// The miss filled the TLB: the entry must be live and the next read a
	// counted hit.
	e := tbs[0].Entry(3)
	if e.Page != 3 || e.Base == nil {
		t.Fatalf("TLB not filled after miss: %+v", e)
	}
	hits := r.procs[0].Hits
	if got := readWord(r.nodes[0], r.procs[0], tbs[0], addr); got != 77 {
		t.Fatalf("second read = %d, want 77", got)
	}
	if r.procs[0].Hits != hits+1 {
		t.Fatalf("hit not counted: %d -> %d", hits, r.procs[0].Hits)
	}
}

func TestWriteHitRequiresDirtyEntry(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(5 * 4096)
	// A read fills a clean entry; the first write must still run the full
	// write-miss protocol (twin + registration), then flip the entry dirty.
	readWord(r.nodes[0], r.procs[0], tbs[0], addr)
	if e := tbs[0].Entry(5); e.Dirty {
		t.Fatal("clean read marked TLB entry dirty")
	}
	writeWord(r.nodes[0], r.procs[0], tbs[0], addr, 11)
	if e := tbs[0].Entry(5); !e.Dirty {
		t.Fatal("write miss did not mark TLB entry dirty")
	}
	if !r.dir.Home(5).W.Has(0) {
		t.Fatal("writer not registered at the directory")
	}
	writeWord(r.nodes[0], r.procs[0], tbs[0], addr, 12)
	r.nodes[0].SDFence(r.procs[0])
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(5)); got != 12 {
		t.Fatalf("home after fence = %d, want 12", got)
	}
}

func TestTLBStaleAfterSIFence(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(7 * 4096)
	if got := readWord(r.nodes[0], r.procs[0], tbs[0], addr); got != 0 {
		t.Fatalf("initial read = %d, want 0", got)
	}
	// Another node writes and releases; after the acquire fence the stale
	// TLB entry must not serve the old value.
	writeWord(r.nodes[1], r.procs[1], tbs[1], addr, 42)
	r.nodes[1].SDFence(r.procs[1])
	r.nodes[0].SIFence(r.procs[0])
	if got := readWord(r.nodes[0], r.procs[0], tbs[0], addr); got != 42 {
		t.Fatalf("read after SI fence = %d, want 42 (stale TLB served)", got)
	}
}

func TestTLBStaleAfterSDFenceDowngrade(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(4 * 4096)
	writeWord(r.nodes[0], r.procs[0], tbs[0], addr, 1)
	r.nodes[0].SDFence(r.procs[0]) // downgrade: page is clean, gen bumped
	// The dirty TLB entry is stale now: this write must re-run the
	// write-miss protocol (fresh twin), not sneak past it, or the value
	// would never be diffed home.
	writeWord(r.nodes[0], r.procs[0], tbs[0], addr, 2)
	r.nodes[0].SDFence(r.procs[0])
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(4)); got != 2 {
		t.Fatalf("home = %d, want 2 (write lost after downgrade)", got)
	}
}

func TestTLBStaleAfterConflictEviction(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	// The rig cache has 8 lines x 2 pages: pages 0 and 16 conflict.
	writeWord(r.nodes[0], r.procs[0], tbs[0], 0, 1)
	readWord(r.nodes[0], r.procs[0], tbs[0], mem.Addr(16*4096)) // evicts page 0 (writeback)
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(0)); got != 1 {
		t.Fatalf("eviction writeback lost: home = %d, want 1", got)
	}
	// Page 0's TLB entry is stale (gen bumped by the refetch); the write
	// must fall back and redo the miss protocol.
	writeWord(r.nodes[0], r.procs[0], tbs[0], 0, 2)
	r.nodes[0].SDFence(r.procs[0])
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(0)); got != 2 {
		t.Fatalf("home = %d, want 2 (write lost after eviction)", got)
	}
}

func TestTLBStaleAfterCrashWipe(t *testing.T) {
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	addr := mem.Addr(6 * 4096)
	if got := readWord(r.nodes[0], r.procs[0], tbs[0], addr); got != 0 {
		t.Fatalf("initial read = %d, want 0", got)
	}
	binary.LittleEndian.PutUint64(r.space.HomeBytes(6), 99)
	r.nodes[0].CrashWipe()
	if got := readWord(r.nodes[0], r.procs[0], tbs[0], addr); got != 99 {
		t.Fatalf("read after crash wipe = %d, want 99 (stale TLB survived the wipe)", got)
	}
}

// TestTLBSeqlockConcurrentSameLine drives the lock-free paths under real
// host concurrency (run under -race): two reader procs spin on one word of
// page 8 while a writer proc on the same node dirties page 9 — the other
// page of the same cache line — and fences, bumping the line generation
// over and over. Readers must always observe the untouched sentinel
// (falling back to the locked path whenever their entry went stale), and
// the writer's last value must survive to home via the Act drain.
func TestTLBSeqlockConcurrentSameLine(t *testing.T) {
	r, _ := wordRig(t, Options{Mode: ModePS3})
	const sentinel = 0x1122334455667788
	rdAddr := mem.Addr(8*4096 + 8)
	wrAddr := mem.Addr(9 * 4096)
	binary.LittleEndian.PutUint64(r.space.HomeBytes(8)[8:], sentinel)

	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &sim.Proc{Node: 0}
			tb := r.nodes[0].NewTLB()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := readWord(r.nodes[0], p, tb, rdAddr); got != sentinel {
					bad.Add(1)
					return
				}
				if i&63 == 63 {
					runtime.Gosched() // don't starve the writer on 1-CPU hosts
				}
			}
		}()
	}

	wp := &sim.Proc{Node: 0}
	wtb := r.nodes[0].NewTLB()
	var last uint64
	for i := 0; i < 128; i++ {
		// A locked write-miss re-dirties the page, then a burst of fast
		// dirty-path stores, then a fence downgrades and bumps the gen.
		for j := 0; j < 8; j++ {
			last = uint64(i*8 + j + 1)
			writeWord(r.nodes[0], wp, wtb, wrAddr, last)
		}
		r.nodes[0].SDFence(wp)
		if i%16 == 0 {
			r.nodes[0].SIFence(wp)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d reader(s) observed a corrupt word", n)
	}
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(9)); got != last {
		t.Fatalf("home = %d, want %d (fast-path store lost)", got, last)
	}
}

// TestTinyPageSizeStaysOnLockedPath pins the geometry guard: with a page
// size smaller than a word the TLB is never filled, and word accessors
// still work through the byte path (including the page-spanning case).
func TestTinyPageSizeStaysOnLockedPath(t *testing.T) {
	topo := sim.Topology{Nodes: 2, Sockets: 1, CoresPerSocket: 2}
	fab := fabric.MustNew(topo, fabric.DefaultParams())
	space := mem.NewSpace(2, 64*4, 4, mem.Interleaved)
	dir := directory.New(fab, space.NPages, space.HomeOf)
	n := NewNode(0, fab, space, dir, cache.New(0, 4, 8, 2, 16), Options{Mode: ModePS3})
	p := &sim.Proc{Node: 0}
	tb := n.NewTLB()
	if tb != nil {
		t.Fatal("a sub-word page size got a TLB")
	}
	writeWord(n, p, tb, 8, 1234)
	if got := readWord(n, p, tb, 8); got != 1234 {
		t.Fatalf("tiny-geometry read = %d, want 1234", got)
	}
}

// The three steady-state miss cycles below must not allocate: the Data buffer
// is refilled (or rebound to the conflicting page) in place although a TLB
// entry has published it, the twin buffer stays with the slot, and the miss
// path's scratch lives on the stack. A race-detector build deliberately
// refills published buffers out of place (cache.PrepareRefill), so the
// guarantee is an ordinary-build one.

func skipAllocTestUnderRace(t *testing.T) {
	t.Helper()
	if racetag.Enabled {
		t.Skip("a -race build refills published buffers out of place, by design")
	}
}

// TestAllocFreeInvalidateRemiss: a line is self-invalidated (the per-line
// action of the SI sweep — the fence's own bookkeeping slices are not the
// miss path) and read-missed again.
func TestAllocFreeInvalidateRemiss(t *testing.T) {
	skipAllocTestUnderRace(t)
	r, tbs := wordRig(t, Options{Mode: ModePS3})
	n, p, tb := r.nodes[0], r.procs[0], tbs[0]
	addr := mem.Addr(3 * 4096) // homed on node 1: a remote line fetch
	binary.LittleEndian.PutUint64(r.space.HomeBytes(3), 77)
	l := n.Cache.LineOf(3)
	cycle := func() {
		ln := n.Cache.LockLine(l)
		ln.BumpGen()
		slots := ln.Slots()
		for i := range slots {
			slots[i].Invalidate()
		}
		ln.Unlock()
		if got := readWord(n, p, tb, addr); got != 77 {
			t.Fatalf("re-miss read %d, want 77", got)
		}
	}
	cycle()
	misses := r.fab.NodeStats(0).ReadMisses.Load()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("SI-invalidate + re-miss allocated %.1f times per cycle, want 0", a)
	}
	if got := r.fab.NodeStats(0).ReadMisses.Load() - misses; got != 101 {
		t.Fatalf("cycle made %d read misses in 101 runs: not the path under test", got)
	}
}

// TestAllocFreeWriteMissDowngradeCycle: with a one-page write buffer two
// pages take turns — every store is a write miss (twin, registration check,
// write-buffer push) whose overflow downgrades the other page (diff against
// the twin, posted write, twin retired).
func TestAllocFreeWriteMissDowngradeCycle(t *testing.T) {
	skipAllocTestUnderRace(t)
	r := newRigGeom(t, Options{Mode: ModePS3}, 8, 2, 1)
	n, p := r.nodes[0], r.procs[0]
	tb := n.NewTLB()
	a, b := mem.Addr(3*4096), mem.Addr(5*4096) // different lines, remote homes
	v := uint64(0)
	cycle := func() {
		v++
		writeWord(n, p, tb, a, v)
		writeWord(n, p, tb, b, v)
	}
	cycle()
	wm, wb := r.fab.NodeStats(0).WriteMisses.Load(), r.fab.NodeStats(0).Writebacks.Load()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("write miss + downgrade allocated %.1f times per cycle, want 0", got)
	}
	if dm, db := r.fab.NodeStats(0).WriteMisses.Load()-wm, r.fab.NodeStats(0).Writebacks.Load()-wb; dm != 202 || db != 202 {
		t.Fatalf("101 cycles made %d write misses and %d writebacks, want 202 each", dm, db)
	}
	n.SDFence(p)
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(3)); got != v {
		t.Fatalf("home of page 3 = %d, want %d", got, v)
	}
}

// TestAllocFreeConflictEvictRefill: in a one-line cache two conflicting pages
// take turns — every store evicts the other page dirty (forced writeback),
// rebinds the slot's published buffer to the new page and refills it.
func TestAllocFreeConflictEvictRefill(t *testing.T) {
	skipAllocTestUnderRace(t)
	r := newRigGeom(t, Options{Mode: ModePS3}, 1, 2, 16)
	n, p := r.nodes[0], r.procs[0]
	tb := n.NewTLB()
	a, b := mem.Addr(1*4096), mem.Addr(3*4096) // both map to slot 1 of line 0
	v := uint64(0)
	cycle := func() {
		v++
		writeWord(n, p, tb, a, v)
		writeWord(n, p, tb, b+8, v)
	}
	cycle()
	rm := r.fab.NodeStats(0).ReadMisses.Load()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("conflict eviction + refill allocated %.1f times per cycle, want 0", got)
	}
	if d := r.fab.NodeStats(0).ReadMisses.Load() - rm; d != 202 {
		t.Fatalf("101 cycles made %d misses, want 202", d)
	}
	n.SDFence(p)
	if ga, gb := binary.LittleEndian.Uint64(r.space.HomeBytes(1)), binary.LittleEndian.Uint64(r.space.HomeBytes(3)[8:]); ga != v || gb != v {
		t.Fatalf("home = %d, %d, want %d (store lost across a recycled buffer)", ga, gb, v)
	}
}

// TestAllocFreeEvictionDowngrade: the eviction downgrade on its own — diff
// against the twin, then the page posted home as a one-item burst — allocates
// nothing in steady state: the post and its reissue live on the evicting
// thread's stack. Under drops every lost post is reissued until the page is
// home, with one writeback per eviction however many posts it took.
func TestAllocFreeEvictionDowngrade(t *testing.T) {
	skipAllocTestUnderRace(t)
	r := newRig(t, Options{Mode: ModePS3})
	n, p := r.nodes[0], r.procs[0]
	tb := n.NewTLB()
	const page = 3 // homed on node 1: a remote post
	l := n.Cache.LineOf(page)
	v := uint64(0)
	cycle := func() {
		v++
		writeWord(n, p, tb, page*4096, v) // write miss on the clean page: a fresh twin
		ln := n.Cache.LockLine(l)
		n.evictSlotLocked(p, ln, n.Cache.SlotOf(ln, page))
		ln.Unlock()
		n.Cache.WBClear() // the stale entries would overflow into writebackIfDirty
		if got := binary.LittleEndian.Uint64(r.space.HomeBytes(page)); got != v {
			t.Fatalf("home of page %d = %d after its eviction, want %d", page, got, v)
		}
	}
	cycle()
	before := r.fab.NodeStats(0).Snapshot()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("eviction downgrade allocated %.1f times per cycle, want 0", a)
	}
	if d := r.fab.NodeStats(0).Snapshot().Sub(before); d.Writebacks != 101 || d.Messages != 101 || d.WriteMisses != 101 {
		t.Fatalf("101 cycles made %d writebacks, %d messages, %d write misses: not the path under test", d.Writebacks, d.Messages, d.WriteMisses)
	}

	r.fab.FI = fault.NewInjector(fault.Plan{Seed: 3, Drop: 0.3})
	before = r.fab.NodeStats(0).Snapshot()
	for range 50 {
		cycle()
	}
	d := r.fab.NodeStats(0).Snapshot().Sub(before)
	if d.Writebacks != 50 || d.WritebackRetries == 0 || d.Messages != 50 || d.FaultsInjected != d.WritebackRetries {
		t.Fatalf("50 evictions under drops made %d writebacks, %d reissues, %d delivered posts, %d drops", d.Writebacks, d.WritebackRetries, d.Messages, d.FaultsInjected)
	}
}

// TestSeqlockConflictRefillHammer is the soundness test of in-place refill:
// reader threads spin on words of page P while another thread of the node
// keeps forcing P↔Q conflict refills through the one slot both map to, so
// the buffer the readers' TLB entries point into is rebound to Q over and
// over. Every word of a page carries that page's number, so a read served
// from the wrong page's bytes — a speculative load that escaped the seqlock
// re-check — is recognizable. A third reader gathers 16 words of P per call
// through the sparse product, which checks P's generation when it opens the
// page and once more after the call's last load, so rebinds also land inside
// runs of hits; the test fails if that reader's TLB never completes a row.
// Run with -cpu 1,2,4; under -race
// the same test checks that the discarded loads stay invisible to the
// detector.
func TestSeqlockConflictRefillHammer(t *testing.T) {
	r := newRigGeom(t, Options{Mode: ModePS3}, 1, 1, 4)
	const pageP, pageQ = 3, 5
	word := func(page, i int) uint64 { return uint64(page)<<32 | uint64(i) }
	for _, pg := range []int{pageP, pageQ} {
		home := r.space.HomeBytes(pg)
		for i := 0; i < 512; i++ {
			binary.LittleEndian.PutUint64(home[8*i:], word(pg, i))
		}
	}
	n := r.nodes[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &sim.Proc{Node: 0}
			tb := r.nodes[0].NewTLB()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := (i * 7) & 511
				if got := readWord(n, p, tb, mem.Addr(pageP*4096+8*w)); got != word(pageP, w) {
					t.Errorf("reader %d: word %d of page %d read %#x, want %#x", g, w, pageP, got, word(pageP, w))
					return
				}
				if i&15 == 15 {
					runtime.Gosched() // let the thrasher in on 1-CPU hosts
				}
			}
		}(g)
	}

	var fused atomic.Int64 // rows the gatherer's TLB completed
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := &sim.Proc{Node: 0}
		tb := r.nodes[0].NewTLB()
		idx, dst := make([]int32, 16), make([]float64, 16)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for k := range idx {
				idx[k] = int32((i*16 + k) * 11 & 511)
			}
			fused.Add(int64(gatherWords(n, p, tb, pageP*4096, idx, dst)))
			for k, w := range idx {
				if got := math.Float64bits(dst[k]); got != word(pageP, int(w)) {
					t.Errorf("gatherer: word %d of page %d read %#x, want %#x", w, pageP, got, word(pageP, int(w)))
					return
				}
			}
			runtime.Gosched() // let the thrasher in on 1-CPU hosts
		}
	}()

	p := &sim.Proc{Node: 0}
	tb := r.nodes[0].NewTLB()
	var buf [8]byte
	// At least 4000 rounds, and more until the gatherer's TLB has completed a
	// row (a bounded wait: the check after the loop names a kernel that never
	// completes one).
	for i := 0; i < 1<<20 && !t.Failed() && (i < 4000 || fused.Load() == 0); i++ {
		w := (i * 13) & 511
		addr := mem.Addr(pageQ*4096 + 8*w)
		switch i & 3 {
		case 0: // bulk path: refills without publishing the buffer
			n.ReadAt(p, addr, buf[:])
			if got := binary.LittleEndian.Uint64(buf[:]); got != word(pageQ, w) {
				t.Fatalf("thrasher: bulk read %#x, want %#x", got, word(pageQ, w))
			}
		case 1: // dirty the page (same value) so its eviction runs the twin/diff path
			writeWord(n, p, tb, addr, word(pageQ, w))
		default:
			if got := readWord(n, p, tb, addr); got != word(pageQ, w) {
				t.Fatalf("thrasher: read %#x, want %#x", got, word(pageQ, w))
			}
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if fused.Load() == 0 && !t.Failed() {
		t.Fatal("the gatherer's TLB completed no row: the kernel under test never ran")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n.SDFence(p)
	for _, pg := range []int{pageP, pageQ} {
		home := r.space.HomeBytes(pg)
		for i := 0; i < 512; i++ {
			if got := binary.LittleEndian.Uint64(home[8*i:]); got != word(pg, i) {
				t.Fatalf("home word %d of page %d = %#x, want %#x", i, pg, got, word(pg, i))
			}
		}
	}
}

// TestTLBHitNeverBehindReadyAt pins the argument that lets a TLB entry drop
// its ReadyAt (cache/tlb.go): thread B first touches a page that thread A
// fetched at a much later virtual time. B's entry is filled on the locked
// path, after B's clock was pulled up to the slot's ReadyAt — so B's next
// access, a TLB hit with no ReadyAt step at all, costs exactly one CacheHit.
func TestTLBHitNeverBehindReadyAt(t *testing.T) {
	r, _ := wordRig(t, Options{Mode: ModePS3})
	n := r.nodes[0]
	addr := mem.Addr(3 * 4096)
	a, b := &sim.Proc{Node: 0}, &sim.Proc{Node: 0, Core: 1}
	tba, tbb := n.NewTLB(), n.NewTLB()

	a.Advance(1_000_000)
	readWord(n, a, tba, addr) // A's miss: the slot is ready well after B's now
	ln := n.Cache.LockLine(n.Cache.LineOf(3))
	readyAt := n.Cache.SlotOf(ln, 3).ReadyAt
	ln.Unlock()
	if readyAt < 1_000_000 {
		t.Fatalf("slot ReadyAt = %d, want A's fetch time (>= 1000000)", readyAt)
	}

	readWord(n, b, tbb, addr) // B's locked hit fills B's entry
	if tbb.Entry(3).Page != 3 {
		t.Fatal("B's locked hit did not fill its TLB")
	}
	if b.Now() < readyAt {
		t.Fatalf("B's clock %d is behind the slot's ReadyAt %d after the fill", b.Now(), readyAt)
	}
	before, hits := b.Now(), b.Hits
	readWord(n, b, tbb, addr)
	if got := b.Now() - before; got != r.fab.P.CacheHit || b.Hits != hits+1 {
		t.Fatalf("TLB hit advanced B by %d (hits +%d), want exactly CacheHit = %d and one hit",
			got, b.Hits-hits, r.fab.P.CacheHit)
	}
}

// TestFastStoreFenceHammer is the soundness test of the write fast path's
// plain store: four writers store round after round into disjoint words of
// one page while another thread of the node runs SD fences back to back, so
// downgrades (generation bump, Act drain, diff, twin dropped) keep landing
// between validated stores. A store that slipped past a drain would sit in
// both the data and the next twin and never be diffed, so after every round's
// closing fence each word at home must carry that round's value. Run with
// -cpu 1,2,4; under -race the same test checks that the plain stores are
// ordered against the diff's reads and the refills.
func TestFastStoreFenceHammer(t *testing.T) {
	r, _ := wordRig(t, Options{Mode: ModePS3})
	n := r.nodes[0]
	const page, writers, words, rounds = 9, 4, 512, 150
	value := func(round, w int) uint64 { return uint64(round+1)<<16 | uint64(w) }

	procs := make([]*sim.Proc, writers)
	tlbs := make([]*cache.TLB, writers)
	for g := range procs {
		procs[g], tlbs[g] = &sim.Proc{Node: 0, Core: g}, n.NewTLB()
	}
	fp := &sim.Proc{Node: 0}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		var running atomic.Int32
		running.Store(writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				defer running.Add(-1)
				for w := g; w < words; w += writers {
					writeWord(n, procs[g], tlbs[g], mem.Addr(page*4096+8*w), value(round, w))
					if w&63 == g {
						runtime.Gosched() // let the fencer in on 1-CPU hosts
					}
				}
			}(g)
		}
		for running.Load() > 0 {
			n.SDFence(fp)
			runtime.Gosched()
		}
		wg.Wait()
		n.SDFence(fp)
		home := r.space.HomeBytes(page)
		for w := 0; w < words; w++ {
			if got := binary.LittleEndian.Uint64(home[8*w:]); got != value(round, w) {
				t.Fatalf("round %d: home word %d = %#x, want %#x (fast-path store lost)", round, w, got, value(round, w))
			}
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var fast int64
	for _, p := range procs {
		fast += p.Hits
	}
	if fast == 0 {
		t.Fatal("no store ever hit: the write fast path was not under test")
	}
}
