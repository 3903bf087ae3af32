// Package pgas is a Partitioned Global Address Space layer in the style of
// UPC — the paper's representative "no remote caching" baseline (§2.1).
//
// Shared arrays are block-distributed over ranks. A rank accesses its own
// block at memory speed; any other element costs a fine-grained remote
// operation. Under UPC's relaxed memory model independent remote accesses
// can be overlapped with each other and with local work, which the cost
// model expresses with an overlap factor on the latency term. Programmers
// escape the fine-grained cost by casting to local pointers (LocalBlock)
// and by explicit bulk transfers (GetBlock) — exactly the manual locality
// management the paper contrasts with Argo's transparent caching.
package pgas

import (
	"fmt"
	"math/bits"

	"argo/internal/fabric"
	"argo/internal/sim"
)

// World is one PGAS job: Size ranks placed compactly over the fabric nodes.
type World struct {
	Fab          *fabric.Fabric
	Size         int
	RanksPerNode int

	barrier *sim.Barrier

	// redIn holds each rank's contribution to a reduction, one slot per rank;
	// generations alternate between the two so back-to-back reductions cannot
	// interfere.
	redIn [2][][]float64
}

// Rank is one PGAS thread (a UPC "THREAD").
type Rank struct {
	W      *World
	ID     int
	P      *sim.Proc
	redGen int
}

// NewWorld creates a PGAS world with ranksPerNode ranks per node.
func NewWorld(fab *fabric.Fabric, ranksPerNode int) *World {
	size := fab.Topo.Nodes * ranksPerNode
	return &World{
		Fab:          fab,
		Size:         size,
		RanksPerNode: ranksPerNode,
		barrier:      sim.NewBarrier(size),
		redIn:        [2][][]float64{make([][]float64, size), make([][]float64, size)},
	}
}

// nodeOf returns the node rank r runs on.
func (w *World) nodeOf(r int) int { return r / w.RanksPerNode }

// Run launches one goroutine per rank and returns the makespan.
func (w *World) Run(body func(r *Rank)) sim.Time {
	ranks := make([]*Rank, w.Size)
	procs := make([]*sim.Proc, w.Size)
	for i := 0; i < w.Size; i++ {
		p := w.Fab.Topo.NewProc(w.nodeOf(i), i%w.RanksPerNode)
		ranks[i] = &Rank{W: w, ID: i, P: p}
		procs[i] = p
	}
	g := sim.NewGroup(procs)
	return g.Run(func(i int, p *sim.Proc) { body(ranks[i]) })
}

// Barrier is upc_barrier.
func (r *Rank) Barrier() {
	cost := sim.Time(0)
	if r.W.Size > 1 {
		cost = 2 * r.W.Fab.P.RemoteLatency * sim.Time(bits.Len(uint(r.W.Size-1)))
	}
	r.W.barrier.Wait(r.P, cost)
}

// Compute advances the rank's clock (local work).
func (r *Rank) Compute(d sim.Time) { r.P.Advance(d) }

// Shared is a block-distributed shared array of word-sized elements.
type Shared[T int64 | float64] struct {
	w      *World
	blocks [][]T
	n      int
	blk    int
}

// SharedF64 is a block-distributed shared array of float64.
type SharedF64 = Shared[float64]

// SharedI64 is a block-distributed shared array of int64.
type SharedI64 = Shared[int64]

// NewSharedF64 allocates a shared float64 array of n elements,
// block-distributed: rank i owns elements [i*ceil(n/Size), ...).
func (w *World) NewSharedF64(n int) *SharedF64 { return newShared[float64](w, n) }

// NewSharedI64 allocates a block-distributed shared int64 array.
func (w *World) NewSharedI64(n int) *SharedI64 { return newShared[int64](w, n) }

func newShared[T int64 | float64](w *World, n int) *Shared[T] {
	blk := (n + w.Size - 1) / w.Size
	s := &Shared[T]{w: w, n: n, blk: blk}
	for i := 0; i < w.Size; i++ {
		lo := i * blk
		hi := lo + blk
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		s.blocks = append(s.blocks, make([]T, hi-lo))
	}
	return s
}

// ownerOf returns the rank owning element i.
func (s *Shared[T]) ownerOf(i int) int { return i / s.blk }

// BlockRange returns the element range [lo,hi) owned by rank.
func (s *Shared[T]) BlockRange(rank int) (lo, hi int) {
	lo = rank * s.blk
	hi = lo + s.blk
	if hi > s.n {
		hi = s.n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// overlap is how many independent relaxed remote accesses the runtime keeps
// in flight; the effective per-access latency divides by it.
const overlap = 4

// remoteAccessCost charges a fine-grained relaxed access to owner's block.
func (r *Rank) remoteAccessCost(owner int, bytes int) {
	pp := r.W.Fab.P
	ownNode := r.W.nodeOf(owner)
	if ownNode == r.P.Node {
		r.P.Advance(pp.DRAMLatency)
		return
	}
	r.P.Advance(2*pp.RemoteLatency/overlap + pp.TransferCost(bytes))
	r.W.Fab.NodeStats(r.P.Node).Messages.Add(1)
	r.W.Fab.NodeStats(r.P.Node).BytesSent.Add(int64(bytes))
}

// Get reads element i (fine-grained; remote if not owned by r).
func (s *Shared[T]) Get(r *Rank, i int) T {
	o := s.ownerOf(i)
	if o == r.ID {
		r.P.Advance(r.W.Fab.P.CacheHit)
	} else {
		r.remoteAccessCost(o, 8)
	}
	lo, _ := s.BlockRange(o)
	return s.blocks[o][i-lo]
}

// Put writes element i (fine-grained; remote if not owned by r).
func (s *Shared[T]) Put(r *Rank, i int, v T) {
	o := s.ownerOf(i)
	if o == r.ID {
		r.P.Advance(r.W.Fab.P.CacheHit)
	} else {
		r.remoteAccessCost(o, 8)
	}
	lo, _ := s.BlockRange(o)
	s.blocks[o][i-lo] = v
}

// LocalBlock returns the caller's own block as a plain slice — the UPC
// "cast shared pointer to local pointer" idiom. Accesses through it are
// memory-speed and must be charged by the workload's compute model.
func (s *Shared[T]) LocalBlock(r *Rank) []T { return s.blocks[r.ID] }

// GetBlock bulk-copies elements [lo,hi) into dst — the manual bulk
// transfer idiom (one latency per owner touched plus the wire term).
func (s *Shared[T]) GetBlock(r *Rank, lo, hi int, dst []T) {
	if hi-lo > len(dst) {
		panic(fmt.Sprintf("pgas: GetBlock dst too small: %d < %d", len(dst), hi-lo))
	}
	i := lo
	for i < hi {
		o := s.ownerOf(i)
		blo, bhi := s.BlockRange(o)
		end := bhi
		if end > hi {
			end = hi
		}
		n := end - i
		if o == r.ID {
			r.P.Advance(r.W.Fab.P.CopyCost(n * 8))
		} else {
			r.W.Fab.RemoteRead(r.P, r.W.nodeOf(o), n*8, uint64(o))
		}
		copy(dst[i-lo:], s.blocks[o][i-blo:end-blo])
		i = end
	}
}

// PutBlock bulk-writes src to elements [lo, lo+len(src)).
func (s *Shared[T]) PutBlock(r *Rank, lo int, src []T) {
	i := lo
	hi := lo + len(src)
	for i < hi {
		o := s.ownerOf(i)
		blo, bhi := s.BlockRange(o)
		end := bhi
		if end > hi {
			end = hi
		}
		n := end - i
		if o == r.ID {
			r.P.Advance(r.W.Fab.P.CopyCost(n * 8))
		} else {
			r.W.Fab.RemoteWrite(r.P, r.W.nodeOf(o), n*8, uint64(o))
		}
		copy(s.blocks[o][i-blo:end-blo], src[i-lo:i-lo+n])
		i = end
	}
}

// AllreduceSum sums v across all ranks and returns the total to each — the
// upc_all_reduce idiom. It has barrier semantics (two rendezvous: combine
// and release).
func (w *World) AllreduceSum(r *Rank, v float64) float64 {
	return w.AllreduceVec(r, []float64{v})[0]
}

// AllreduceVec element-wise sums vals across all ranks — one combining
// collective regardless of the vector length, like upc_all_reduce over an
// array. Every rank adds the contributions in rank order, so the total's
// bits do not depend on which rank arrived first.
func (w *World) AllreduceVec(r *Rank, vals []float64) []float64 {
	in := w.redIn[r.redGen&1]
	r.redGen++
	in[r.ID] = vals
	r.Barrier()
	total := make([]float64, len(vals))
	for _, c := range in {
		for i, v := range c {
			total[i] += v
		}
	}
	r.Barrier()
	return total
}
