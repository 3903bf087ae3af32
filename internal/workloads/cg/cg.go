// Package cg reproduces the NAS CG benchmark (Figure 13f): conjugate
// gradient iterations on a random sparse symmetric positive-definite
// matrix. Rows are block-partitioned; the direction vector p is read by
// everyone and rewritten by its owners every iteration, and each iteration
// carries two global dot-product reductions — the synchronization-heavy
// pattern that separates the paradigms. The UPC port computes slightly
// faster per flop (the optimized NAS implementation) but re-pulls the whole
// p vector every iteration with no caching, which is why it stops scaling
// first.
package cg

import (
	"math"

	"argo/internal/core"
	"argo/internal/pgas"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

// Params sizes the benchmark (the evaluation's inputs: internal/harness/kernels.go).
type Params struct {
	N      int // unknowns
	PerRow int // nonzeros per row (approximate; matrix is symmetrized)
	Iters  int // CG iterations
}

// flopCost is the modeled cost of one sparse multiply-add.
const flopCost sim.Time = 5

// upcFlopFactor reflects the optimized NAS-UPC implementation's lower
// per-flop constant (the paper's single-node advantage).
const upcFlopFactor = 0.8

// Sparse is a CSR matrix.
type Sparse struct {
	N      int
	RowPtr []int32
	ColIdx []int32
	Val    []float64
}

// The generated inputs of the last parameter set asked for (wload.Memo): every
// runner family, sweep point and repetition of one figure shares them.
var (
	matrices wload.Memo[Params, *Sparse]
	rhss     wload.Memo[int, []float64]
)

// BuildMatrix returns the deterministic SPD input matrix of p. The matrix is
// built once per (N, PerRow) and shared: it is immutable, and every runner
// only reads it.
func BuildMatrix(p Params) *Sparse {
	p.Iters = 0 // the matrix does not depend on it
	return matrices.Get(p, buildMatrix)
}

// buildMatrix generates PerRow/2 random symmetric off-diagonal pairs per row,
// then a dominant diagonal. The CSR arrays are built in place by replaying the
// generator twice — once to size every row, once to fill it — so nothing is
// grown or copied. Within a row the diagonal comes first and the entries
// follow in generation order.
func buildMatrix(p Params) *Sparse {
	n := p.N
	per := p.PerRow / 2
	// pairs replays the xorshift stream and calls emit for every symmetric
	// off-diagonal pair (i, j, v). A draw that lands on the diagonal is
	// skipped before its value is drawn.
	pairs := func(emit func(i, j int, v float64)) {
		seed := uint64(88172645463325252)
		next := func() uint64 {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			return seed
		}
		for i := 0; i < n; i++ {
			for k := 0; k < per; k++ {
				j := int(next() % uint64(n))
				if j == i {
					continue
				}
				emit(i, j, float64(next()%2000)/1000.0-1.0)
			}
		}
	}

	s := &Sparse{N: n, RowPtr: make([]int32, n+1)}
	pairs(func(i, j int, _ float64) {
		s.RowPtr[i+1]++
		s.RowPtr[j+1]++
	})
	for i := 0; i < n; i++ {
		s.RowPtr[i+1] += s.RowPtr[i] + 1 // the row's entries, and its diagonal
	}
	nnz := int(s.RowPtr[n])
	s.ColIdx = make([]int32, nnz)
	s.Val = make([]float64, nnz)

	fill := make([]int32, n) // next free position of each row
	for i := range fill {
		fill[i] = s.RowPtr[i] + 1
	}
	put := func(i, j int, v float64) {
		s.ColIdx[fill[i]], s.Val[fill[i]] = int32(j), v
		fill[i]++
	}
	pairs(func(i, j int, v float64) {
		put(i, j, v)
		put(j, i, v)
	})
	for i := 0; i < n; i++ {
		// Diagonal dominance makes the matrix SPD.
		diag := 1.0
		for k := s.RowPtr[i] + 1; k < s.RowPtr[i+1]; k++ {
			diag += math.Abs(s.Val[k])
		}
		s.ColIdx[s.RowPtr[i]], s.Val[s.RowPtr[i]] = int32(i), diag
	}
	return s
}

// rhs returns the deterministic right-hand side, shared and immutable like
// the matrix: callers copy it before they update it.
func rhs(n int) []float64 { return rhss.Get(n, buildRHS) }

func buildRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.001)
	}
	return b
}

// spmvRows computes q[lo:hi] = (A·p)[lo:hi] and returns the real flop count.
// Rows go two at a time, each in its own add chain and summed left to right
// from zero (an odd last row goes alone): the one-row loop's bits, with two
// chains of adds in flight instead of one.
func (s *Sparse) spmvRows(q, p []float64, lo, hi int) int {
	for i := lo; i < hi; i += 2 {
		a, b, c := s.RowPtr[i], s.RowPtr[i+1], s.RowPtr[i+1]
		if i+1 < hi {
			c = s.RowPtr[i+2]
		}
		ca, cb := s.ColIdx[a:b], s.ColIdx[b:c]
		va, vb := s.Val[a:b], s.Val[b:c]
		va, vb = va[:len(ca)], vb[:len(cb)]
		var sa, sb float64
		k := 0
		for m := min(len(ca), len(cb)); k < m; k++ {
			sa += va[k] * p[ca[k]]
			sb += vb[k] * p[cb[k]]
		}
		for ; k < len(ca); k++ {
			sa += va[k] * p[ca[k]]
		}
		for ; k < len(cb); k++ {
			sb += vb[k] * p[cb[k]]
		}
		q[i] = sa
		if i+1 < hi {
			q[i+1] = sb
		}
	}
	return int(s.RowPtr[hi] - s.RowPtr[lo])
}

// Serial runs the reference CG and returns the solution vector.
func Serial(p Params) []float64 {
	s := BuildMatrix(p)
	n := p.N
	b := rhs(n)
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	d := append([]float64(nil), b...)
	q := make([]float64, n)
	rho := dot(r, r)
	for it := 0; it < p.Iters; it++ {
		s.spmvRows(q, d, 0, n)
		alpha := rho / dot(d, q)
		for i := 0; i < n; i++ {
			x[i] += alpha * d[i]
			r[i] -= alpha * q[i]
		}
		rhoNew := dot(r, r)
		beta := rhoNew / rho
		rho = rhoNew
		for i := 0; i < n; i++ {
			d[i] = r[i] + beta*d[i]
		}
	}
	return x
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// RunSerial measures one thread on the local machine.
func RunSerial(p Params) wload.Result { return RunLocal(p, 1) }

// RunLocal is the OpenMP baseline.
func RunLocal(p Params, threads int) wload.Result {
	sm := BuildMatrix(p)
	n := p.N
	m := wload.NewLocalMachine()
	b := rhs(n)
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	d := append([]float64(nil), b...)
	q := make([]float64, n)
	partsA := make([]float64, threads)
	partsB := make([]float64, threads)
	var check float64

	t := m.Run(threads, func(lc *wload.LocalCtx) {
		lo, hi := wload.BlockRange(n, threads, lc.ID)
		pdot := func(a, bb []float64) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += a[i] * bb[i]
			}
			return s
		}
		// The initial reduction uses partsB: the first iteration writes
		// partsA before its barrier, which would race with slow readers of
		// an initial reduction in partsA.
		rho := 0.0
		partsB[lc.ID] = pdot(r, r)
		lc.Barrier()
		for _, v := range partsB {
			rho += v
		}
		for it := 0; it < p.Iters; it++ {
			flops := sm.spmvRows(q, d, lo, hi)
			lc.Compute(sim.Time(flops) * flopCost)
			partsA[lc.ID] = pdot(d, q)
			lc.Barrier()
			var dq float64
			for _, v := range partsA {
				dq += v
			}
			alpha := rho / dq
			for i := lo; i < hi; i++ {
				x[i] += alpha * d[i]
				r[i] -= alpha * q[i]
			}
			partsB[lc.ID] = pdot(r, r)
			lc.Barrier()
			var rhoNew float64
			for _, v := range partsB {
				rhoNew += v
			}
			beta := rhoNew / rho
			rho = rhoNew
			for i := lo; i < hi; i++ {
				d[i] = r[i] + beta*d[i]
			}
			lc.Barrier()
		}
		if lc.ID == 0 {
			check = wload.Checksum(x)
		}
	})
	return wload.Result{System: "local", Nodes: 1, Threads: threads, Time: t, Check: check}
}

// spmvGather computes q = (A·d)[lo:hi] on a DSM thread and returns the real
// flop count. It reads the direction vector gd element-wise through the page
// cache, as the Pthreads original reads a shared array (pages fault in on
// demand): SpMVF64 is one GetF64 per nonzero, in order, each row summed as
// spmvRows sums it, with the multiply-adds fused into the TLB's validated
// loads, whose pages it checks once per call.
func (s *Sparse) spmvGather(th *core.Thread, gd core.F64Slice, q []float64, lo, hi int) int {
	th.SpMVF64(gd, s.RowPtr, s.ColIdx, s.Val, lo, hi, q)
	return int(s.RowPtr[hi] - s.RowPtr[lo])
}

// RunArgo runs CG on the DSM: p (the direction vector) lives in global
// memory and migrates every iteration; dot products go through small
// shared partial-sum pages.
func RunArgo(cfg core.Config, p Params, tpn int) wload.Result {
	return runArgo(cfg, p, tpn, (*Sparse).spmvGather, wload.ChecksumOf)
}

// runArgo is RunArgo over the given sparse matvec, with the checksum of the
// solution taken by fold (the tests keep the scalar matvec as the reference,
// and check fold against the fold over a dump).
func runArgo(cfg core.Config, p Params, tpn int, spmv func(s *Sparse, th *core.Thread, gd core.F64Slice, q []float64, lo, hi int) int, fold func(*core.Cluster, core.F64Slice) float64) wload.Result {
	sm := BuildMatrix(p)
	n := p.N
	nt := cfg.Nodes * tpn
	// Four vectors and the partial sums; the slack absorbs their page rounding.
	need := int64(4*n+2*nt)*8 + 1<<20
	if cfg.MemoryBytes < need {
		cfg.MemoryBytes = need
	}
	c := wload.MustCluster(cfg)
	defer c.Close()
	gd := c.AllocF64(n) // direction vector (shared, rewritten per iter)
	gr := c.AllocF64(n) // residual   (block-private pages)
	gx := c.AllocF64(n) // solution   (block-private pages)
	gq := c.AllocF64(n) // A·d        (block-private pages)
	gparts := c.AllocF64(2 * nt)
	b := rhs(n)
	c.InitF64(gd, b)
	c.InitF64(gr, b)

	time := c.Run(tpn, func(th *core.Thread) {
		lo, hi := wload.BlockRange(n, nt, th.Rank)
		cnt := hi - lo
		// All vectors live in global memory, as in the Pthreads original:
		// r/x/q pages are private to their owning node (P/S3 exempts them
		// from SI; mode S refetches them after every barrier), d migrates.
		r := make([]float64, cnt)
		x := make([]float64, cnt)
		q := make([]float64, cnt)
		d := make([]float64, cnt) // own block of the direction vector
		upd := make([]float64, cnt)
		all := make([]float64, nt)
		pdotLocal := func(a, bb []float64) float64 {
			var s float64
			for i := range a {
				s += a[i] * bb[i]
			}
			return s
		}
		readParts := func(slot int) float64 {
			th.ReadF64s(gparts, slot*nt, slot*nt+nt, all)
			var s float64
			for _, v := range all {
				s += v
			}
			return s
		}
		th.ReadF64s(gr, lo, hi, r)
		th.WriteF64(gparts.At(th.Rank), pdotLocal(r, r))
		th.Barrier()
		rho := readParts(0)
		for it := 0; it < p.Iters; it++ {
			// Own block of d, used by the dot products and updates below.
			th.ReadF64s(gd, lo, hi, d)
			flops := spmv(sm, th, gd, q, lo, hi)
			th.Compute(sim.Time(flops) * flopCost)
			th.WriteF64s(gq, lo, q)
			th.WriteF64(gparts.At(nt+th.Rank), pdotLocal(d, q))
			th.Barrier()
			dq := readParts(1)
			alpha := rho / dq
			th.ReadF64s(gx, lo, hi, x)
			th.ReadF64s(gr, lo, hi, r)
			th.ReadF64s(gq, lo, hi, q)
			for i := 0; i < cnt; i++ {
				x[i] += alpha * d[i]
				r[i] -= alpha * q[i]
			}
			th.WriteF64s(gx, lo, x)
			th.WriteF64s(gr, lo, r)
			th.WriteF64(gparts.At(th.Rank), pdotLocal(r, r))
			th.Barrier()
			rhoNew := readParts(0)
			beta := rhoNew / rho
			rho = rhoNew
			for i := 0; i < cnt; i++ {
				upd[i] = r[i] + beta*d[i]
			}
			th.WriteF64s(gd, lo, upd)
			th.Barrier()
		}
		th.Barrier()
	})
	return wload.Result{
		System: "argo", Nodes: cfg.Nodes, Threads: nt, Time: time,
		Check: fold(c, gx), Stats: c.Stats(),
	}
}

// RunUPC is the PGAS port: d is a shared array pulled in bulk (no caching)
// every iteration; reductions are upc_all_reduce.
func RunUPC(nodes, rpn int, p Params) wload.Result {
	sm := BuildMatrix(p)
	n := p.N
	w := pgas.NewWorld(wload.NewFabric(nodes), rpn)
	size := w.Size
	gd := w.NewSharedF64(n)
	gx := w.NewSharedF64(n)
	var check float64
	flop := sim.Time(math.Round(float64(flopCost) * upcFlopFactor))
	b := rhs(n)

	t := w.Run(func(r0 *pgas.Rank) {
		lo, hi := gd.BlockRange(r0.ID)
		cnt := hi - lo
		// Initialize own block of d.
		gd.PutBlock(r0, lo, b[lo:hi])
		r0.Barrier()

		r := make([]float64, cnt)
		x := make([]float64, cnt)
		q := make([]float64, cnt)
		copy(r, b[lo:hi])
		dfull := make([]float64, n)
		upd := make([]float64, cnt)
		var rhoPart float64
		for i := 0; i < cnt; i++ {
			rhoPart += r[i] * r[i]
		}
		rho := w.AllreduceSum(r0, rhoPart)
		for it := 0; it < p.Iters; it++ {
			// No caching: pull the whole shared vector every iteration.
			gd.GetBlock(r0, 0, n, dfull)
			flops := 0
			for i := lo; i < hi; i++ {
				var acc float64
				for k := sm.RowPtr[i]; k < sm.RowPtr[i+1]; k++ {
					acc += sm.Val[k] * dfull[sm.ColIdx[k]]
				}
				q[i-lo] = acc
				flops += int(sm.RowPtr[i+1] - sm.RowPtr[i])
			}
			r0.Compute(sim.Time(flops) * flop)
			var dqPart float64
			for i := 0; i < cnt; i++ {
				dqPart += dfull[lo+i] * q[i]
			}
			dq := w.AllreduceSum(r0, dqPart)
			alpha := rho / dq
			var rhoNewPart float64
			for i := 0; i < cnt; i++ {
				x[i] += alpha * dfull[lo+i]
				r[i] -= alpha * q[i]
				rhoNewPart += r[i] * r[i]
			}
			rhoNew := w.AllreduceSum(r0, rhoNewPart)
			beta := rhoNew / rho
			rho = rhoNew
			for i := 0; i < cnt; i++ {
				upd[i] = r[i] + beta*dfull[lo+i]
			}
			gd.PutBlock(r0, lo, upd)
			r0.Barrier()
		}
		gx.PutBlock(r0, lo, x)
		r0.Barrier()
		if r0.ID == 0 {
			full := make([]float64, n)
			gx.GetBlock(r0, 0, n, full)
			check = wload.Checksum(full)
		}
	})
	return wload.Result{System: "upc", Nodes: nodes, Threads: size, Time: t, Check: check}
}
