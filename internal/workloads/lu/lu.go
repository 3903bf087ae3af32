// Package lu reproduces the SPLASH-2 LU benchmark (Figure 13a): blocked
// right-looking LU factorization without pivoting, with barriers between
// the diagonal, perimeter and interior phases of every step. Blocks are
// owned round-robin by threads, so perimeter blocks written in step k are
// read by almost everyone in step k+1 — the heavy data-migration pattern
// that makes LU the costliest of the paper's benchmarks on a DSM (it still
// beats the single machine and gains up to eight nodes).
package lu

import (
	"fmt"

	"argo/internal/core"
	"argo/internal/sim"
	"argo/internal/simd"
	"argo/internal/workloads/wload"
)

// Params sizes the benchmark (the evaluation's inputs: internal/harness/kernels.go).
type Params struct {
	N     int // matrix dimension
	Block int // block size
}

// flopCost is the modeled cost of one multiply-add in the block kernels.
const flopCost sim.Time = 6

// matrices holds the input of the last dimension asked for (wload.Memo),
// shared by every runner, sweep point and repetition of that size.
var matrices wload.Memo[int, []float64]

// input returns the shared input matrix. It is immutable: RunArgo and RunCrash
// only copy it into home memory.
func input(n int) []float64 { return matrices.Get(n, buildMatrix) }

// matrix returns the deterministic, diagonally dominant input matrix, as a
// copy the caller owns: Serial and RunLocal factor it in place.
func matrix(n int) []float64 { return append([]float64(nil), input(n)...) }

func buildMatrix(n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = float64((i*16807+j*48271)%2000)/1000.0 - 1.0
		}
		a[i*n+i] += float64(2 * n)
	}
	return a
}

// The block kernels below walk row slices cut to one common length, which
// lets the compiler drop every bounds check from the inner loops. None of
// them reorders arithmetic: each element sees the same rounded operations in
// the same order as the textbook triple loops (kept as references in
// kernels_test.go), so results are bit-identical — the ledger pins LU's
// checksum bits.

// row returns row i of a b×b block, with capacity clipped to the row.
func row(a []float64, i, b int) []float64 { return a[i*b : i*b+b : i*b+b] }

// factorDiag factors a b×b block in place (L unit lower / U upper).
func factorDiag(a []float64, b int) {
	for k := 0; k < b; k++ {
		ak := row(a, k, b)
		for i := k + 1; i < b; i++ {
			ai := row(a, i, b)[:len(ak)]
			ai[k] /= ak[k]
			lik := ai[k]
			for j := k + 1; j < len(ak); j++ {
				ai[j] -= lik * ak[j]
			}
		}
	}
}

// solveRow computes blk = L(diag)^{-1} · blk (unit lower triangular solve).
func solveRow(diag, blk []float64, b int) {
	for k := 0; k < b; k++ {
		bk := row(blk, k, b)
		for i := k + 1; i < b; i++ {
			lik := diag[i*b+k]
			bi := row(blk, i, b)[:len(bk)]
			for j, x := range bk {
				bi[j] -= lik * x
			}
		}
	}
}

// solveCol computes blk = blk · U(diag)^{-1} (upper triangular solve). The
// rows of blk are independent, so it runs row-major: element (i,j) still
// takes its updates for k = 0..j-1 in order and is then divided by U(j,j).
func solveCol(diag, blk []float64, b int) {
	for i := 0; i < b; i++ {
		bi := row(blk, i, b)
		for k := range bi {
			dk := row(diag, k, b)[:len(bi)]
			bi[k] /= dk[k]
			x := bi[k]
			for j := k + 1; j < len(bi); j++ {
				bi[j] -= x * dk[j]
			}
		}
	}
}

// mulSub computes c -= a·bb for b×b blocks. On an AVX2 host a block whose b
// is a multiple of 16 goes to simd.MulSub, which applies the same rounded
// multiply and subtract per element in the same ascending k (DESIGN §29);
// every other block takes mulSubGo.
func mulSub(c, a, bb []float64, b int) {
	if !simd.MulSub(c, a, bb, b) {
		mulSubGo(c, a, bb, b)
	}
}

// mulSubGo is the portable block update: k advances four at a time with
// c(i,j) held in a register across the four updates, applied in ascending k
// — the order of the one-at-a-time loop, which finishes the k%4 remainder.
func mulSubGo(c, a, bb []float64, b int) {
	for i := 0; i < b; i++ {
		ci, ai := row(c, i, b), row(a, i, b)
		k := 0
		for ; k+4 <= len(ai); k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			b0, b1 := row(bb, k, b)[:len(ci)], row(bb, k+1, b)[:len(ci)]
			b2, b3 := row(bb, k+2, b)[:len(ci)], row(bb, k+3, b)[:len(ci)]
			for j, v := range ci {
				v -= a0 * b0[j]
				v -= a1 * b1[j]
				v -= a2 * b2[j]
				v -= a3 * b3[j]
				ci[j] = v
			}
		}
		for ; k < len(ai); k++ {
			aik, bk := ai[k], row(bb, k, b)[:len(ci)]
			for j, x := range bk {
				ci[j] -= aik * x
			}
		}
	}
}

// Serial factors the input with the same blocked algorithm (bit-identical
// reference for the parallel variants).
func Serial(p Params) []float64 {
	n, b := p.N, p.Block
	a := matrix(n)
	nb := n / b
	get := func(bi, bj int) []float64 {
		blk := make([]float64, b*b)
		for r := 0; r < b; r++ {
			copy(blk[r*b:(r+1)*b], a[(bi*b+r)*n+bj*b:(bi*b+r)*n+bj*b+b])
		}
		return blk
	}
	put := func(bi, bj int, blk []float64) {
		for r := 0; r < b; r++ {
			copy(a[(bi*b+r)*n+bj*b:(bi*b+r)*n+bj*b+b], blk[r*b:(r+1)*b])
		}
	}
	for k := 0; k < nb; k++ {
		diag := get(k, k)
		factorDiag(diag, b)
		put(k, k, diag)
		for j := k + 1; j < nb; j++ {
			blk := get(k, j)
			solveRow(diag, blk, b)
			put(k, j, blk)
		}
		for i := k + 1; i < nb; i++ {
			blk := get(i, k)
			solveCol(diag, blk, b)
			put(i, k, blk)
		}
		for i := k + 1; i < nb; i++ {
			left := get(i, k)
			for j := k + 1; j < nb; j++ {
				up := get(k, j)
				blk := get(i, j)
				mulSub(blk, left, up, b)
				put(i, j, blk)
			}
		}
	}
	return a
}

// worker is what the step schedule needs of a thread: *wload.LocalCtx on
// the local machine, *core.Thread on the DSM.
type worker interface {
	Compute(d sim.Time)
	Barrier()
}

// factor is thread id's share of the blocked factorization of an nb×nb grid
// of b×b blocks, owned round-robin by nt threads: every step factors the
// diagonal block, then the perimeter, then the interior, each phase closed
// by a barrier. get copies block (bi, bj) into dst, put writes blk back.
func factor(w worker, id, nt, nb, b int, get func(dst []float64, bi, bj int), put func(bi, bj int, blk []float64)) {
	owner := func(bi, bj int) int { return (bi*nb + bj) % nt }
	blockCost := sim.Time(b) * sim.Time(b) * sim.Time(b) * flopCost
	diag := make([]float64, b*b)
	blk := make([]float64, b*b)
	left := make([]float64, b*b)
	up := make([]float64, b*b)
	for k := 0; k < nb; k++ {
		if owner(k, k) == id {
			get(diag, k, k)
			factorDiag(diag, b)
			put(k, k, diag)
			w.Compute(blockCost / 3)
		}
		w.Barrier()
		get(diag, k, k)
		for j := k + 1; j < nb; j++ {
			if owner(k, j) == id {
				get(blk, k, j)
				solveRow(diag, blk, b)
				put(k, j, blk)
				w.Compute(blockCost / 2)
			}
		}
		for i := k + 1; i < nb; i++ {
			if owner(i, k) == id {
				get(blk, i, k)
				solveCol(diag, blk, b)
				put(i, k, blk)
				w.Compute(blockCost / 2)
			}
		}
		w.Barrier()
		for i := k + 1; i < nb; i++ {
			mine := false
			for j := k + 1; j < nb; j++ {
				if owner(i, j) == id {
					mine = true
					break
				}
			}
			if !mine {
				continue
			}
			get(left, i, k)
			for j := k + 1; j < nb; j++ {
				if owner(i, j) != id {
					continue
				}
				get(up, k, j)
				get(blk, i, j)
				mulSub(blk, left, up, b)
				put(i, j, blk)
				w.Compute(blockCost)
			}
		}
		w.Barrier()
	}
}

// RunSerial measures one thread on the local machine.
func RunSerial(p Params) wload.Result { return RunLocal(p, 1) }

// RunLocal is the Pthreads baseline: same block ownership, plain memory.
func RunLocal(p Params, threads int) wload.Result {
	n, b := p.N, p.Block
	if n%b != 0 {
		panic(fmt.Sprintf("lu: N %d not a multiple of block %d", n, b))
	}
	nb := n / b
	m := wload.NewLocalMachine()
	a := matrix(n)
	get := func(dst []float64, bi, bj int) {
		for r := 0; r < b; r++ {
			copy(dst[r*b:(r+1)*b], a[(bi*b+r)*n+bj*b:(bi*b+r)*n+bj*b+b])
		}
	}
	put := func(bi, bj int, blk []float64) {
		for r := 0; r < b; r++ {
			copy(a[(bi*b+r)*n+bj*b:(bi*b+r)*n+bj*b+b], blk[r*b:(r+1)*b])
		}
	}
	t := m.Run(threads, func(lc *wload.LocalCtx) { factor(lc, lc.ID, threads, nb, b, get, put) })
	return wload.Result{System: "local", Nodes: 1, Threads: threads, Time: t, Check: wload.Checksum(a)}
}

// RunArgo factors on the DSM. Block reads/writes stream through the page
// cache row by row.
func RunArgo(cfg core.Config, p Params, tpn int) wload.Result {
	return runArgo(cfg, p, tpn, wload.ChecksumOf)
}

// runArgo is RunArgo with the checksum of the factored matrix taken by fold
// (the tests check it against the fold over a dump).
func runArgo(cfg core.Config, p Params, tpn int, fold func(*core.Cluster, core.F64Slice) float64) wload.Result {
	n, b := p.N, p.Block
	if n%b != 0 {
		panic(fmt.Sprintf("lu: N %d not a multiple of block %d", n, b))
	}
	nb := n / b
	need := int64(n*n*8) + 1<<20
	if cfg.MemoryBytes < need {
		cfg.MemoryBytes = need
	}
	c := wload.MustCluster(cfg)
	defer c.Close()
	ga := c.AllocF64(n * n)
	c.InitF64(ga, input(n))

	nt := cfg.Nodes * tpn
	time := c.Run(tpn, func(th *core.Thread) {
		get := func(dst []float64, bi, bj int) {
			for r := 0; r < b; r++ {
				off := (bi*b+r)*n + bj*b
				th.ReadF64s(ga, off, off+b, dst[r*b:(r+1)*b])
			}
		}
		put := func(bi, bj int, blk []float64) {
			for r := 0; r < b; r++ {
				off := (bi*b+r)*n + bj*b
				th.WriteF64s(ga, off, blk[r*b:(r+1)*b])
			}
		}
		factor(th, th.Rank, nt, nb, b, get, put)
	})
	return wload.Result{
		System: "argo", Nodes: cfg.Nodes, Threads: nt, Time: time,
		Check: fold(c, ga), Stats: c.Stats(),
	}
}
