// Package mem implements Argo's global address space: a range of virtual
// addresses backed by page-granular home memory distributed over the nodes
// of the cluster, plus the collective bump allocator that hands out ranges
// of it.
//
// Homes are assigned per 4 KB page, either interleaved across nodes (the
// paper's scheme: node 0 serves the lowest addresses modulo the node count)
// or in contiguous blocks (an ablation the paper leaves as future work).
//
// Functionally, a home page is a byte slice guarded by a per-page
// reader/writer lock, which models the DMA serialization a real NIC provides
// and keeps concurrent writeback/fetch pairs race-free. The slice exists only
// once the page has been written: NewSpace allocates no backing storage, the
// first WritePageFull, Writeback, ApplyDiff or HomeBytes of a page takes a
// frame from the process's free frames (frame.go) and clears it under the
// page's write lock, and a page nobody has written reads as zeros without ever
// getting a frame — a run pays for the home memory it touches, not for the
// capacity it reserved. The page table itself (lock and slice header per page)
// appears the same way, sparse.ChunkLen pages at a time at the first write
// into the chunk, and Free hands its chunks, and the frames they hold, back
// when the cluster closes.
// All costs are charged through the fabric by the callers (cache/coherence
// layers).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"argo/internal/simd"
	"argo/internal/sparse"
)

// Addr is a byte offset into the global address space.
type Addr = int64

// Policy selects how pages are assigned to home nodes.
type Policy int

const (
	// Interleaved assigns page p to node p mod N (the paper's scheme).
	Interleaved Policy = iota
	// Blocked assigns contiguous runs of pages to each node.
	Blocked
)

func (p Policy) String() string {
	switch p {
	case Interleaved:
		return "interleaved"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Space is the global address space of one cluster.
type Space struct {
	PageSize int
	NPages   int
	Nodes    int
	Policy   Policy

	pageShift uint // log2(PageSize); PageSize is a power of two

	pages    sparse.Array[page] // per global page
	cursor   atomic.Int64       // bump allocator
	capacity int64
}

// page is one home page: its lock, its content, nil until first written, and
// the count of write-lock holds, which lockHome bumps before any write: a copy
// of the page that was made at a count the page still has holds its current
// content (Refill).
type page struct {
	mu     sync.RWMutex
	data   []byte
	writes atomic.Uint64
}

// pagePool recycles page-table chunks from a closed cluster's space to the
// next cluster's (Free). Its reset hands each page's frame back; a zeroed page
// is a fresh one.
var pagePool = sparse.NewPool(func(chunk *[sparse.ChunkLen]page) {
	for i := range chunk {
		PutFrame(chunk[i].data)
	}
	clear(chunk[:])
})

// NewSpace creates a global address space of totalBytes bytes (rounded up to
// whole pages) distributed over nodes homes. No page has backing storage yet.
func NewSpace(nodes int, totalBytes int64, pageSize int, policy Policy) *Space {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size must be a positive power of two, got %d", pageSize))
	}
	if nodes <= 0 {
		panic("mem: need at least one node")
	}
	np := int((totalBytes + int64(pageSize) - 1) / int64(pageSize))
	if np == 0 {
		np = 1
	}
	s := &Space{
		PageSize:  pageSize,
		NPages:    np,
		Nodes:     nodes,
		Policy:    policy,
		pageShift: uint(bits.TrailingZeros(uint(pageSize))),
		pages:     sparse.Make(np, pagePool, nil),
		capacity:  int64(np) * int64(pageSize),
	}
	return s
}

// Capacity returns the size of the space in bytes.
func (s *Space) Capacity() int64 { return s.capacity }

// HomeOf returns the home node of global page p.
func (s *Space) HomeOf(p int) int {
	switch s.Policy {
	case Blocked:
		per := (s.NPages + s.Nodes - 1) / s.Nodes
		h := p / per
		if h >= s.Nodes {
			h = s.Nodes - 1
		}
		return h
	default:
		return p % s.Nodes
	}
}

// PageOf returns the global page containing address a.
func (s *Space) PageOf(a Addr) int { return int(a >> s.pageShift) }

// Alloc reserves size bytes aligned to align (which must be a power of two;
// 0 means 8) and returns the base address. It is safe for concurrent use.
// Alloc panics when the space is exhausted — the simulator sizes the space
// to the workload up front, as the paper's prototype does.
func (s *Space) Alloc(size int64, align int64) Addr {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment must be a power of two, got %d", align))
	}
	for {
		cur := s.cursor.Load()
		base := (cur + align - 1) &^ (align - 1)
		end := base + size
		if end > s.capacity {
			panic(fmt.Sprintf("mem: out of global memory: want %d bytes at %d, capacity %d", size, base, s.capacity))
		}
		if s.cursor.CompareAndSwap(cur, end) {
			return base
		}
	}
}

// AllocPageAligned reserves size bytes starting on a page boundary, which
// gives a data structure its own pages (no false sharing with neighbours).
func (s *Space) AllocPageAligned(size int64) Addr {
	return s.Alloc(size, int64(s.PageSize))
}

// lockHome write-locks page p, moves its version on, and returns it with its
// backing storage: a frame taken at the page's first write and cleared,
// because the writers overwrite only part of it and the rest must read as the
// zeros it held unwritten. It is the one door to a home frame for writing —
// WritePageFull, Writeback, ApplyDiff and HomeBytes all come through it — so
// no write reaches a page whose version Refill still reads as a copy's. The
// caller unlocks pg.mu.
func (s *Space) lockHome(p int) (pg *page, home []byte) {
	if pg = s.pages.Peek(p); pg == nil {
		pg = s.pages.At(p)
	}
	pg.mu.Lock()
	pg.writes.Add(1)
	if pg.data == nil {
		pg.data = GetFrame(s.PageSize)
		clear(pg.data)
	}
	return pg, pg.data
}

// ReadPage copies page p's home content into dst (len(dst) == PageSize),
// whatever dst held: a Refill from no version. A page nobody has written yet
// reads as zeros and stays unallocated; where not even its table entry exists
// there is no lock to take either — zeros are the page as it was before any
// write, and a reader that synchronised with a writer (DRF) finds the entry
// that writer published.
func (s *Space) ReadPage(p int, dst []byte) { s.Refill(p, dst, 0) }

// Refill brings dst, a copy of page p at version have, up to the page's
// current home content and returns the version dst then holds. have is what an
// earlier Refill of p into dst returned, or 0 when dst holds no version of p
// (a version is never 0). When have is current, Refill returns after one
// atomic load: no lock and no copy, because no writer has taken the page's
// lock since dst's copy was made (lockHome moves the version first). Otherwise
// it copies under the page's read lock and returns the version it copied. The
// caller must not have written dst since it was filled at have.
//
// A reader that synchronised with the page's last writer (DRF) sees that
// writer's version move, so a copy Refill keeps is the copy it would have
// made; a write racing the load is a write the read may order before.
func (s *Space) Refill(p int, dst []byte, have uint64) uint64 {
	pg := s.pages.Peek(p)
	if pg == nil {
		if have != 1 {
			clear(dst)
		}
		return 1 // unwritten: zeros, as after writes count 0
	}
	if have != 0 && pg.writes.Load()+1 == have {
		return have
	}
	pg.mu.RLock()
	v := pg.writes.Load() + 1
	if pg.data != nil {
		copy(dst, pg.data)
	} else {
		clear(dst)
	}
	pg.mu.RUnlock()
	return v
}

// zeroWords is what a page nobody has written is seen through: zeros, 8-byte
// aligned so that a view of words may be taken of it.
var zeroWords [512]uint64

// ViewPageAt hands fn bytes [off, off+n) of page p's home content in place,
// under the page's read lock: fn must not write to the view nor keep it after
// it returns. A page nobody has written is seen as zeros, in views of at most
// 4 KiB, and gets no frame (as with ReadPage). The zeros and every frame of
// 8 bytes or more are word-aligned, so on such pages a view is as aligned as
// off.
func (s *Space) ViewPageAt(p, off, n int, fn func(b []byte)) {
	if pg := s.pages.Peek(p); pg != nil {
		pg.mu.RLock()
		defer pg.mu.RUnlock()
		if pg.data != nil {
			fn(pg.data[off : off+n])
			return
		}
	}
	zeros := unsafe.Slice((*byte)(unsafe.Pointer(&zeroWords)), len(zeroWords)*8)
	for n > 0 {
		k := min(n, len(zeros))
		fn(zeros[:k])
		n -= k
	}
}

// WritePageFull overwrites page p's home content with src. Used for
// initialization and for the single-writer full-page downgrade optimization.
func (s *Space) WritePageFull(p int, src []byte) {
	pg, home := s.lockHome(p)
	copy(home, src)
	pg.mu.Unlock()
}

// Writeback downgrades a dirty cached page to its home. While holding the
// page's home lock it consults preferFull; if that reports true the whole
// page is copied (single-writer full-page transmission — safe because the
// check happens after any competing writer has necessarily published its
// registration), otherwise only the bytes differing from twin are applied.
// It returns the number of bytes transmitted and which path was taken.
func (s *Space) Writeback(p int, data, twin []byte, preferFull func() bool) (tx int, full bool) {
	pg, home := s.lockHome(p)
	defer pg.mu.Unlock()
	if preferFull != nil && preferFull() {
		copy(home, data)
		return len(data), true
	}
	return diffScan(home, data, twin), false
}

// The diff scan. A release diffs every dirty page against its twin, so this
// scan is the host cost of an SD fence. On an AVX2 host most pages go to the
// SIMD kernel (simd.Diff, see diffScan); the Go scan, diffScanGo, works at
// three granularities:
//
//   - Chunks of diffChunk bytes are compared with bytes.Equal (the runtime's
//     vectorised memequal) and skipped whole when identical. Most of a typical
//     dirty page is untouched, so most of the page moves at that speed. 128
//     is the width BenchmarkDiff picked: 64 is ~10 % better for the ledger's
//     sparse driver, 256 ~35 % better for a one-word page, 128 loses least
//     on both.
//   - The words of a chunk that does differ are classified without looking at
//     bytes: x = data^twin, and nz gets 0x80 in every byte lane where x is
//     nonzero (each lane is masked to 7 bits before the add, so no carry
//     crosses a lane and the mask is exact). x == 0 skips the word; a streak
//     of words whose every byte changed (a solidly overwritten region) is
//     found with the cheaper has-zero-byte test and moved with one copy.
//   - A byte-step tail covers what is left when the length is not a multiple
//     of the chunk or of eight.
//
// Wire size — each maximal run of changed bytes travels as an 8-byte header
// plus the bytes (the encoding of Keleher et al.) — is arithmetic on nz:
// popcount(nz) changed bytes, plus one header per changed byte whose
// predecessor is unchanged, popcount(nz &^ (nz<<8 | carry)). nz<<8 moves each
// lane's flag onto its successor (little-endian lane order is memory order);
// carry is the flag of the byte just before the word (0x80 or 0), threaded
// from word to word and across chunks, and cleared by every equal word and
// every skipped chunk.
//
// Applying is a masked word merge: m widens each 0x80 flag to 0xff and
// home = home&^m | data&m. That rewrites the word's unchanged bytes with the
// value just read from home. Another node may own those bytes (false
// sharing), but every reader and writer of a home page holds the page's lock,
// and the merge holds it exclusively, so the read-modify-write is atomic to
// all of them and the rewrite is invisible.
const (
	diffChunk = 128
	diffLo7   = 0x7f7f7f7f7f7f7f7f
	diffLo    = 0x0101010101010101
	diffHi    = 0x8080808080808080
)

// diffScan returns the wire size of the diff of data against twin and, when
// home is non-nil, applies the changed bytes to it. It is the one scan behind
// Writeback and ApplyDiff; tests size a diff without applying it (nil home).
// The caller holds home's page lock exclusively.
//
// On an AVX2 host a page whose length is a multiple of 32 goes to simd.Diff,
// the same arithmetic on 32-byte blocks (DESIGN §29): one VPCMPEQB and
// VPMOVMSKB give a block's changed-byte mask, whose popcounts size the block
// exactly as nz's do here, and VPBLENDVB is the masked merge. Every other
// page, and every page of a -race build, takes diffScanGo.
func diffScan(home, data, twin []byte) int {
	if tx, ok := simd.Diff(home, data, twin); ok {
		return tx
	}
	return diffScanGo(home, data, twin)
}

// diffScanGo is the portable scan described above: the fallback of diffScan
// and the reference its SIMD path is tested against.
func diffScanGo(home, data, twin []byte) int {
	n := len(data)
	twin = twin[:n]
	tx := 0
	var carry uint64
	i := 0
	for ; i+diffChunk <= n; i += diffChunk {
		d, t := (*[diffChunk]byte)(data[i:]), (*[diffChunk]byte)(twin[i:])
		if bytes.Equal(d[:], t[:]) {
			carry = 0
			continue
		}
		var h *[diffChunk]byte
		if home != nil {
			h = (*[diffChunk]byte)(home[i:])
		}
		var w int
		w, carry = diffChunkWords(h, d, t, carry)
		tx += w
	}
	if i < n && !bytes.Equal(data[i:], twin[i:]) {
		var h []byte
		if home != nil {
			h = home[i:n]
		}
		tx += diffTail(h, data[i:], twin[i:], carry)
	}
	return tx
}

// diffWord accounts one word with changed bytes (x = data^twin, nonzero): it
// returns the word's share of the wire size, the byte-lane mask of its
// changed bytes and the carry for the next word.
func diffWord(x, carry uint64) (tx int, m, next uint64) {
	nz := ((x&diffLo7 + diffLo7) | x) & diffHi
	starts := nz &^ (nz<<8 | carry)
	return bits.OnesCount64(nz) + 8*bits.OnesCount64(starts), (nz >> 7) * 0xff, nz >> 56
}

// diffChunkWords scans one chunk that is known to differ; h is nil when the
// diff is only being sized. Fixed-size array operands keep the loop free of
// bounds checks and its operands in registers: the same loop over slices
// (diffTail's) runs BenchmarkDiff 25–40 % slower.
func diffChunkWords(h, d, t *[diffChunk]byte, carry uint64) (int, uint64) {
	tx := 0
	for j := 0; j < diffChunk; j += 8 {
		dw := binary.LittleEndian.Uint64(d[j : j+8])
		x := dw ^ binary.LittleEndian.Uint64(t[j:j+8])
		if x == 0 {
			carry = 0
			continue
		}
		if (x-diffLo)&^x&diffHi == 0 { // no zero byte: every byte changed
			k := j + 8
			for ; k < diffChunk; k += 8 {
				y := binary.LittleEndian.Uint64(d[k:k+8]) ^ binary.LittleEndian.Uint64(t[k:k+8])
				if (y-diffLo)&^y&diffHi != 0 {
					break
				}
			}
			tx += k - j + 8 - int(carry>>4) // the header only if this byte opens the run
			carry = 0x80
			if h != nil {
				copy(h[j:k], d[j:k])
			}
			j = k - 8
			continue
		}
		var w int
		var m uint64
		w, m, carry = diffWord(x, carry)
		tx += w
		if h != nil {
			hw := h[j : j+8]
			binary.LittleEndian.PutUint64(hw, binary.LittleEndian.Uint64(hw)&^m|dw&m)
		}
	}
	return tx, carry
}

// diffTail scans the last, shorter-than-a-chunk piece of a page whose size is
// not a multiple of diffChunk: whole words, then single bytes.
func diffTail(h, d, t []byte, carry uint64) int {
	tx := 0
	j := 0
	for ; j+8 <= len(d); j += 8 {
		dw := binary.LittleEndian.Uint64(d[j:])
		x := dw ^ binary.LittleEndian.Uint64(t[j:])
		if x == 0 {
			carry = 0
			continue
		}
		var w int
		var m uint64
		w, m, carry = diffWord(x, carry)
		tx += w
		if h != nil {
			binary.LittleEndian.PutUint64(h[j:], binary.LittleEndian.Uint64(h[j:])&^m|dw&m)
		}
	}
	for ; j < len(d); j++ {
		if d[j] == t[j] {
			carry = 0
			continue
		}
		tx += 1 + 8 - int(carry>>4)
		carry = 0x80
		if h != nil {
			h[j] = d[j]
		}
	}
	return tx
}

// ApplyDiff writes back the bytes of data that differ from twin into page
// p's home content, leaving other bytes (possibly concurrently written by
// other nodes — false sharing) untouched. It returns the number of bytes
// that would travel on the wire: the changed bytes plus an 8-byte run header
// per contiguous changed run (the diff encoding of Keleher et al.).
func (s *Space) ApplyDiff(p int, data, twin []byte) int {
	pg, home := s.lockHome(p)
	tx := diffScan(home, data, twin)
	pg.mu.Unlock()
	return tx
}

// HomeBytes exposes page p's backing slice for unlocked access, allocating
// it if the page has never been written. It is intended for tests, for
// zero-cost initialization and for building verification snapshots: the
// returned slice may only be used while all simulated threads are quiesced,
// and only until Free (core.Cluster.Close) — the frame then belongs to
// whichever page, cache slot or twin of whichever cluster takes it next. It
// moves the page's version as every writer does, so a write through the slice
// must come before the page's next refill: a refill in between holds the
// version the write did not move.
func (s *Space) HomeBytes(p int) []byte {
	pg, home := s.lockHome(p)
	pg.mu.Unlock()
	return home
}
