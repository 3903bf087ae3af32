package mem

import (
	"fmt"
	"math/bits"
	"unsafe"

	"argo/internal/sparse"
)

// frames holds the process's recycled page-sized buffers ("frames"), one free
// list per size: frames[k] holds frames of 1<<k bytes. Home pages, cached
// copies and twins all come from here (GetFrame is the only place a
// page-sized buffer is made), and a closed cluster hands all of them back
// (PutFrame, from the page-table and cache-line chunks' resets), so the next
// cluster — the next runner call, sweep point or ledger repetition — reuses
// them instead of allocating its simulated memory again.
//
// An entry is the address of a frame's first byte; the list's index gives its
// length. What is handed back stays until a GetFrame takes it, collections
// included, so the process keeps as many frames as it ever had handed back
// at once.
var frames [bits.UintSize]sparse.FreeList[byte]

// GetFrame returns a frame of size bytes (a positive power of two: a page
// size). Its content is whatever its last user left in it — a fresh frame
// appears only when the list of its size is empty — so a caller that will not
// overwrite the whole frame before reading it must clear it first.
func GetFrame(size int) []byte {
	if p := frames[frameClass(size)].Get(); p != nil {
		return unsafe.Slice(p, size)
	}
	return make([]byte, size)
}

// PutFrame hands b, a whole frame GetFrame returned, back for any later
// GetFrame of its size, in this cluster or another. The caller gives up b: no
// reference to it may be used again. A nil b is ignored.
func PutFrame(b []byte) {
	if b != nil {
		frames[frameClass(len(b))].Put(unsafe.SliceData(b))
	}
}

// frameClass returns the index of the list of size-byte frames.
func frameClass(size int) int {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("mem: a frame's size must be a positive power of two, got %d", size))
	}
	return bits.TrailingZeros(uint(size))
}

// Free hands every home page's frame back (PutFrame) and the page table's
// chunks to the next cluster's space; afterwards every page reads as never
// written. It walks only the chunks a write created. The caller guarantees
// that nothing uses the space any more — no access, and no slice HomeBytes
// returned (core.Cluster.Close).
func (s *Space) Free() { s.pages.Free() }
