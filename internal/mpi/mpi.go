// Package mpi is a small message-passing runtime over the simulated fabric —
// the substrate for the paper's MPI baselines. It provides eager
// point-to-point sends and the collectives the fig13 kernels use (scatter,
// gather, a ring allgather and a barrier), all charged with the same
// latency/bandwidth model the DSM uses, so Argo-vs-MPI comparisons ride
// identical wires.
package mpi

import (
	"sync"

	"argo/internal/fabric"
	"argo/internal/sim"
)

// World is one MPI job: Size ranks placed compactly over the fabric's nodes
// (fabric.Job).
type World struct {
	fabric.Job
	inbox []inbox // per destination rank
}

type message struct {
	data    []float64
	availAt sim.Time
}

// inbox is one rank's mail: a FIFO per source, made by that source's first
// Send, and the rank itself parked under the source it waits on. Sends are
// eager and unbounded, so only Recv sleeps.
type inbox struct {
	mu     sync.Mutex
	from   map[int][]message // oldest first
	waiter sim.WaitQueue     // tagged by source
}

// Rank is one MPI process.
type Rank struct {
	W  *World
	ID int
	P  *sim.Proc
}

// NewWorld creates a world of ranksPerNode ranks on every node of fab.
func NewWorld(fab *fabric.Fabric, ranksPerNode int) *World {
	w := &World{Job: fabric.NewJob(fab, ranksPerNode)}
	w.inbox = make([]inbox, w.Size)
	return w
}

// Run launches one simulated thread per rank and returns the makespan.
func (w *World) Run(body func(r *Rank)) sim.Time {
	return w.Job.Run(func(i int, p *sim.Proc) { body(&Rank{W: w, ID: i, P: p}) })
}

// sendCost charges the sender for injecting bytes toward dst and returns
// the virtual time at which the message is available at the receiver.
func (r *Rank) sendCost(dst, bytes int) sim.Time {
	pp := r.W.Fab.P
	srcNode, dstNode := r.P.Node, r.W.NodeOf(dst)
	if srcNode == dstNode {
		r.P.Advance(pp.DRAMLatency + pp.CopyCost(bytes))
		return r.P.Now()
	}
	r.W.Fab.RemoteWrite(r.P, dstNode, bytes, uint64(dst))
	return r.P.Now() + pp.RemoteLatency
}

// Send transmits a float64 payload to dst (eager and never blocking;
// ownership of the slice passes to the receiver).
func (r *Rank) Send(dst int, data []float64) {
	avail := r.sendCost(dst, len(data)*8)
	in := &r.W.inbox[dst]
	in.mu.Lock()
	if in.from == nil {
		in.from = map[int][]message{}
	}
	in.from[r.ID] = append(in.from[r.ID], message{data: data, availAt: avail})
	in.waiter.WakeAll(r.ID)
	in.mu.Unlock()
}

// Recv receives the next float64 payload from src (blocking, in-order).
func (r *Rank) Recv(src int) []float64 {
	in := &r.W.inbox[r.ID]
	in.mu.Lock()
	for len(in.from[src]) == 0 {
		in.waiter.Park(&in.mu, src)
	}
	q := in.from[src]
	m := q[0]
	n := copy(q, q[1:]) // shift down, not reslice: the array is the FIFO's for good
	q[n] = message{}    // and must not keep a payload alive
	in.from[src] = q[:n]
	in.mu.Unlock()
	r.P.AdvanceTo(m.availAt)
	r.P.Advance(r.W.Fab.P.CacheHit)
	return m.data
}

// Barrier synchronizes all ranks (cost of a binomial dissemination barrier).
func (r *Rank) Barrier() { r.W.Job.Barrier(r.P) }

// AllgatherRing concatenates every rank's mine (equal lengths) in rank
// order using the standard ring algorithm: Size-1 steps, each shifting one
// block to the right neighbour.
func (r *Rank) AllgatherRing(mine []float64) []float64 {
	n := len(mine)
	out := make([]float64, n*r.W.Size)
	copy(out[r.ID*n:], mine)
	right := (r.ID + 1) % r.W.Size
	left := (r.ID - 1 + r.W.Size) % r.W.Size
	blk := r.ID
	cur := mine
	for step := 0; step < r.W.Size-1; step++ {
		r.Send(right, cur)
		got := r.Recv(left)
		blk = (blk - 1 + r.W.Size) % r.W.Size
		copy(out[blk*n:], got)
		cur = got
	}
	return out
}

// Scatter splits root's data into Size equal chunks and delivers chunk i to
// rank i. Non-root ranks pass nil.
func (r *Rank) Scatter(root int, data []float64, chunk int) []float64 {
	if r.ID == root {
		mine := make([]float64, chunk)
		copy(mine, data[root*chunk:(root+1)*chunk])
		for dst := 0; dst < r.W.Size; dst++ {
			if dst == root {
				continue
			}
			out := make([]float64, chunk)
			copy(out, data[dst*chunk:(dst+1)*chunk])
			r.Send(dst, out)
		}
		return mine
	}
	return r.Recv(root)
}

// Gather collects each rank's chunk at root in rank order; non-root ranks
// get nil.
func (r *Rank) Gather(root int, mine []float64) []float64 {
	if r.ID != root {
		r.Send(root, mine)
		return nil
	}
	out := make([]float64, len(mine)*r.W.Size)
	copy(out[root*len(mine):], mine)
	for src := 0; src < r.W.Size; src++ {
		if src == root {
			continue
		}
		got := r.Recv(src)
		copy(out[src*len(got):], got)
	}
	return out
}

// Compute advances the rank's clock (local work).
func (r *Rank) Compute(d sim.Time) { r.P.Advance(d) }
