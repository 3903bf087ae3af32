// Package mem implements Argo's global address space: a range of virtual
// addresses backed by page-granular home memory distributed over the nodes
// of the cluster, plus the collective bump allocator that hands out ranges
// of it.
//
// Homes are assigned per 4 KB page, either interleaved across nodes (the
// paper's scheme: node 0 serves the lowest addresses modulo the node count)
// or in contiguous blocks (an ablation the paper leaves as future work).
//
// Functionally, home pages are ordinary byte slices guarded by per-page
// reader/writer locks, which models the DMA serialization a real NIC
// provides and keeps concurrent writeback/fetch pairs race-free. All costs
// are charged through the fabric by the callers (cache/coherence layers).
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
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

	pages    [][]byte       // per global page, backing storage
	locks    []sync.RWMutex // per global page
	cursor   atomic.Int64   // bump allocator
	capacity int64
}

// NewSpace creates a global address space of totalBytes bytes (rounded up to
// whole pages) distributed over nodes homes.
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
		pages:     make([][]byte, np),
		locks:     make([]sync.RWMutex, np),
		capacity:  int64(np) * int64(pageSize),
	}
	// One slab per node keeps each node's home pages contiguous in host
	// memory, like the per-node contributions in the paper's prototype.
	perNode := make([]int, nodes)
	for p := 0; p < np; p++ {
		perNode[s.HomeOf(p)]++
	}
	slabs := make([][]byte, nodes)
	for n := range slabs {
		slabs[n] = make([]byte, perNode[n]*pageSize)
	}
	next := make([]int, nodes)
	for p := 0; p < np; p++ {
		h := s.HomeOf(p)
		off := next[h] * pageSize
		s.pages[p] = slabs[h][off : off+pageSize : off+pageSize]
		next[h]++
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

// PageShift returns log2(PageSize) — page-number extraction by shift for
// per-access hot paths (PageSize is validated to be a power of two).
func (s *Space) PageShift() uint { return s.pageShift }

// PageBase returns the first address of page p.
func (s *Space) PageBase(p int) Addr { return Addr(p) * Addr(s.PageSize) }

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

// Used returns the number of allocated bytes.
func (s *Space) Used() int64 { return s.cursor.Load() }

// ResetAlloc rewinds the allocator. Only for harnesses reusing a space.
func (s *Space) ResetAlloc() { s.cursor.Store(0) }

// ReadPage copies page p's home content into dst (len(dst) == PageSize).
func (s *Space) ReadPage(p int, dst []byte) {
	s.locks[p].RLock()
	copy(dst, s.pages[p])
	s.locks[p].RUnlock()
}

// WritePageFull overwrites page p's home content with src. Used for
// initialization and for the single-writer full-page downgrade optimization.
func (s *Space) WritePageFull(p int, src []byte) {
	s.locks[p].Lock()
	copy(s.pages[p], src)
	s.locks[p].Unlock()
}

// Writeback downgrades a dirty cached page to its home. While holding the
// page's home lock it consults preferFull; if that reports true the whole
// page is copied (single-writer full-page transmission — safe because the
// check happens after any competing writer has necessarily published its
// registration), otherwise only the bytes differing from twin are applied.
// It returns the number of bytes transmitted and which path was taken.
func (s *Space) Writeback(p int, data, twin []byte, preferFull func() bool) (tx int, full bool) {
	s.locks[p].Lock()
	defer s.locks[p].Unlock()
	home := s.pages[p]
	if preferFull != nil && preferFull() {
		copy(home, data)
		return len(data), true
	}
	return applyDiffLocked(home, data, twin), false
}

// The diff run-scan compares data against twin eight bytes at a time. Each
// XOR word is classified with two branch-free tests: all-equal (zero),
// all-different (no zero byte, detected with the carry trick — the
// expression is exact for *whether* a zero byte exists), or mixed. Only
// mixed words walk their bytes, and they do so in the register, so the
// common patterns — untouched regions, solidly overwritten regions — move
// at a word per step while arbitrary patterns keep the exact byte-run
// semantics of the scalar loop. TrailingZeros on a sub-word tail would not
// see bytes past len, so the tail falls back to byte steps.
const (
	diffWordLo = 0x0101010101010101
	diffWordHi = 0x8080808080808080
)

// forEachDiffRun iterates the maximal runs [i, j) where data differs from
// twin, invoking fn (when non-nil) for each, and returns the total wire size
// of the diff: the changed bytes plus an 8-byte run header per run (the
// encoding of Keleher et al.). It is the single run-scan shared by the apply
// and size paths.
func forEachDiffRun(data, twin []byte, fn func(i, j int)) int {
	n := len(data)
	tx := 0
	run := -1 // start of the open diff run, or -1
	emit := func(end int) {
		if fn != nil {
			fn(run, end)
		}
		tx += (end - run) + 8
		run = -1
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(data[i:]) ^ binary.LittleEndian.Uint64(twin[i:])
		switch {
		case x == 0: // word identical
			if run >= 0 {
				emit(i)
			}
		case (x-diffWordLo)&^x&diffWordHi == 0: // every byte differs
			if run < 0 {
				run = i
			}
		default: // mixed word: walk its bytes in the register
			for b := 0; b < 8; b++ {
				if byte(x>>(8*b)) != 0 {
					if run < 0 {
						run = i + b
					}
				} else if run >= 0 {
					emit(i + b)
				}
			}
		}
	}
	for ; i < n; i++ {
		if data[i] != twin[i] {
			if run < 0 {
				run = i
			}
		} else if run >= 0 {
			emit(i)
		}
	}
	if run >= 0 {
		emit(n)
	}
	return tx
}

func applyDiffLocked(home, data, twin []byte) int {
	return forEachDiffRun(data, twin, func(i, j int) {
		copy(home[i:j], data[i:j])
	})
}

// ApplyDiff writes back the bytes of data that differ from twin into page
// p's home content, leaving other bytes (possibly concurrently written by
// other nodes — false sharing) untouched. It returns the number of bytes
// that would travel on the wire: the changed bytes plus an 8-byte run header
// per contiguous changed run (the diff encoding of Keleher et al.).
func (s *Space) ApplyDiff(p int, data, twin []byte) int {
	s.locks[p].Lock()
	tx := applyDiffLocked(s.pages[p], data, twin)
	s.locks[p].Unlock()
	return tx
}

// DiffSize returns the wire size of the diff between data and twin without
// applying it (used to account the cost of a diff before transmission).
func DiffSize(data, twin []byte) int {
	return forEachDiffRun(data, twin, nil)
}

// HomeBytes exposes page p's backing slice without locking. It is intended
// for tests and for building verification snapshots after all simulated
// threads have quiesced.
func (s *Space) HomeBytes(p int) []byte { return s.pages[p] }
