// Package mm reproduces the paper's naive Matrix Multiply benchmark
// (Figure 13d, run with two input sizes). C = A×B with block-row
// partitioning: every thread owns a stripe of C (private pages under P/S3),
// reads its stripe of A once, and streams all of B — which is read-only
// shared, so it classifies S,NW and is never self-invalidated.
//
// The MPI port (scatter A, broadcast B, gather C) computes with a slightly
// lower per-flop cost, reflecting the paper's observation that the MPI
// version had an algorithmic (blocking/layout) advantage that made it
// faster on a single node.
package mm

import (
	"math"

	"argo/internal/core"
	"argo/internal/mpi"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

// Params sizes the benchmark (the evaluation's inputs: internal/harness/kernels.go).
type Params struct {
	N int // matrix dimension
}

// flopCost is the modeled cost of one multiply-add of the naive algorithm.
const flopCost sim.Time = 8

// mpiFlopFactor scales the MPI port's compute cost (its blocked layout is
// faster per flop, as in the paper's single-node comparison).
const mpiFlopFactor = 0.7

// element returns the deterministic A/B input values, identical everywhere.
func element(which, i, j, n int) float64 {
	x := float64((i*131071+j*524287+which*8191)%1000)/1000.0 - 0.5
	return x
}

// Serial computes the reference product.
func Serial(p Params) []float64 {
	n := p.N
	a := makeMatrix(0, n)
	b := makeMatrix(1, n)
	c := make([]float64, n*n)
	mulRows(c, a, b, 0, n, n)
	return c
}

// operands holds A and B of the last dimension asked for (wload.Memo), shared
// by every runner, sweep point and repetition of that size.
var operands wload.Memo[int, [2][]float64]

// inputs returns the operand matrices A and B. They are immutable: every
// runner reads them or copies them into the memory it multiplies in.
func inputs(n int) (a, b []float64) {
	ab := operands.Get(n, func(n int) [2][]float64 {
		return [2][]float64{makeMatrix(0, n), makeMatrix(1, n)}
	})
	return ab[0], ab[1]
}

func makeMatrix(which, n int) []float64 {
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m[i*n+j] = element(which, i, j, n)
		}
	}
	return m
}

// mulRows computes rows [lo,hi) of c = a×b with the ikj loop order (the
// streaming order every variant uses, so results are bit-identical).
func mulRows(c, a, b []float64, lo, hi, n int) {
	for i := lo; i < hi; i++ {
		row := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			brow := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				row[j] += aik * brow[j]
			}
		}
	}
}

// RunLocal is the Pthreads baseline.
func RunLocal(p Params, threads int) wload.Result {
	n := p.N
	m := wload.NewLocalMachine()
	a, b := inputs(n)
	c := make([]float64, n*n)
	t := m.Run(threads, func(lc *wload.LocalCtx) {
		lo, hi := wload.BlockRange(n, threads, lc.ID)
		mulRows(c, a, b, lo, hi, n)
		lc.Compute(sim.Time(hi-lo) * sim.Time(n) * sim.Time(n) * flopCost)
		lc.Barrier()
	})
	return wload.Result{System: "local", Nodes: 1, Threads: threads, Time: t, Check: wload.Checksum(c)}
}

// RunArgo multiplies on the DSM.
func RunArgo(cfg core.Config, p Params, tpn int) wload.Result {
	return runArgo(cfg, p, tpn, wload.ChecksumOf)
}

// runArgo is RunArgo with the checksum of the product taken by fold (the
// tests check it against the fold over a dump).
func runArgo(cfg core.Config, p Params, tpn int, fold func(*core.Cluster, core.F64Slice) float64) wload.Result {
	n := p.N
	need := int64(3*n*n*8) + 1<<20
	if cfg.MemoryBytes < need {
		cfg.MemoryBytes = need
	}
	c := wload.MustCluster(cfg)
	defer c.Close()
	ga := c.AllocF64(n * n)
	gb := c.AllocF64(n * n)
	gc := c.AllocF64(n * n)
	a, b := inputs(n)
	c.InitF64(ga, a)
	c.InitF64(gb, b)

	nt := cfg.Nodes * tpn
	time := c.Run(tpn, func(th *core.Thread) {
		lo, hi := wload.BlockRange(n, nt, th.Rank)
		rows := hi - lo
		if rows == 0 {
			th.Barrier()
			return
		}
		// Own stripe of A, streamed once.
		a := make([]float64, rows*n)
		th.ReadF64s(ga, lo*n, hi*n, a)
		brow := make([]float64, n)
		crow := make([]float64, n)
		for k := 0; k < n; k++ {
			th.ReadF64s(gb, k*n, (k+1)*n, brow)
			for i := 0; i < rows; i++ {
				// Naive in-place accumulation, like the original: C's rows
				// are read-modify-written through the DSM for every k, so
				// their pages stay dirty across the whole computation —
				// the access pattern behind the write-buffer cliff of
				// Figures 9/10.
				gi := (lo + i) * n
				th.ReadF64s(gc, gi, gi+n, crow)
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					crow[j] += aik * brow[j]
				}
				th.WriteF64s(gc, gi, crow)
			}
			th.Compute(sim.Time(rows) * sim.Time(n) * flopCost)
		}
		th.Barrier()
	})
	return wload.Result{
		System: "argo", Nodes: cfg.Nodes, Threads: nt, Time: time,
		Check: fold(c, gc), Stats: c.Stats(),
	}
}

// RunMPI is the message-passing port: scatter A's rows, broadcast B
// (scatter + ring allgather, the bandwidth-optimal large broadcast),
// compute, gather C.
func RunMPI(nodes, rpn int, p Params) wload.Result {
	n := p.N
	w := mpi.NewWorld(wload.NewFabric(nodes), rpn)
	size := w.Size
	rowsPer := (n + size - 1) / size
	chunk := rowsPer * n
	var check float64
	flop := sim.Time(math.Round(float64(flopCost) * mpiFlopFactor))
	t := w.Run(func(r *mpi.Rank) {
		var apad, bpad []float64
		// Large-message broadcast of B: scatter + ring allgather.
		bchunk := (n*n + size - 1) / size
		if r.ID == 0 {
			a, b := inputs(n)
			apad = make([]float64, chunk*size)
			copy(apad, a)
			bpad = make([]float64, bchunk*size)
			copy(bpad, b)
		}
		mine := r.Scatter(0, apad, chunk)
		bpart := r.Scatter(0, bpad, bchunk)
		ball := r.AllgatherRing(bpart)[: n*n : n*n]

		lo := r.ID * rowsPer
		hi := lo + rowsPer
		if hi > n {
			hi = n
		}
		res := make([]float64, chunk)
		if lo < hi {
			rows := hi - lo
			for k := 0; k < n; k++ {
				brow := ball[k*n : (k+1)*n]
				for i := 0; i < rows; i++ {
					aik := mine[i*n+k]
					row := res[i*n : (i+1)*n]
					for j := 0; j < n; j++ {
						row[j] += aik * brow[j]
					}
				}
			}
			r.Compute(sim.Time(rows) * sim.Time(n) * sim.Time(n) * flop)
		}
		out := r.Gather(0, res)
		if r.ID == 0 {
			check = wload.Checksum(out[:n*n])
		}
	})
	return wload.Result{System: "mpi", Nodes: nodes, Threads: size, Time: t, Check: check}
}
