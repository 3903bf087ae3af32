package mem

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"
)

// frames holds the process's recycled page-sized buffers ("frames"), one pool
// per size: frames[k] holds frames of 1<<k bytes. Home pages, cached copies
// and twins all come from here (GetFrame is the only place a page-sized buffer
// is made), and a closed cluster hands all of them back (PutFrame), so the next
// cluster — the next runner call, sweep point or ledger repetition — reuses
// them instead of allocating its simulated memory again.
//
// A pool entry is the address of a frame's first byte; the pool's index gives
// its length. A pointer fits in an interface without a box, so recycling a
// frame allocates nothing.
//
// The pools are sync.Pools, so the garbage collector may take frames back: a
// frame nobody has asked for survives one collection (in the pool's victim
// cache) and is freed by the second. So the frames one runner call closed are
// still there for the next even when a collection runs between the two, as
// the perf ledger's runtime.GC() before every repetition does.
var frames [bits.UintSize]sync.Pool

// GetFrame returns a frame of size bytes (a positive power of two: a page
// size). Its content is whatever its last user left in it — a fresh frame
// appears only when the pool of its size is empty — so a caller that will not
// overwrite the whole frame before reading it must clear it first.
func GetFrame(size int) []byte {
	if p, ok := frames[frameClass(size)].Get().(*byte); ok {
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

// frameClass returns the index of the pool of size-byte frames.
func frameClass(size int) int {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("mem: a frame's size must be a positive power of two, got %d", size))
	}
	return bits.TrailingZeros(uint(size))
}

// PutFrames hands every home page's frame to the pool and forgets it, walking
// only the page-table chunks a write created; afterwards every page reads as
// never written. The caller guarantees that nothing uses the space any more —
// no access, and no slice HomeBytes returned (core.Cluster.Close).
func (s *Space) PutFrames() {
	s.pages.Chunks(func(_ int, chunk []page) {
		for i := range chunk {
			PutFrame(chunk[i].data)
			chunk[i].data = nil
		}
	})
}
