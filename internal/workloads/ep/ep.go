// Package ep reproduces the NAS EP (Embarrassingly Parallel) benchmark
// (Figure 13e): generate pseudorandom pairs, accept those inside the unit
// circle, transform them to Gaussian deviates, and histogram the deviates
// into ten annuli. Work is divided in fixed chunks with per-chunk RNG
// streams, so results are bit-identical for every thread count and every
// paradigm. EP has almost no communication — the workload where Argo
// matches OpenMP and UPC all the way out (the paper runs it to 128 nodes).
package ep

import (
	"math"

	"argo/internal/core"
	"argo/internal/pgas"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

// Params sizes the benchmark (the evaluation's inputs: internal/harness/kernels.go).
type Params struct {
	Chunks        int // fixed work units (independent RNG streams)
	PairsPerChunk int
}

// pairCost is the modeled cost of generating and classifying one pair.
const pairCost sim.Time = 60

// partial is one chunk's contribution.
type partial struct {
	Q      [10]float64
	Sx, Sy float64
}

// chunkPartial computes chunk c's contribution (deterministic).
func chunkPartial(c, pairs int) partial {
	var out partial
	// NAS-style multiplicative LCG, seeded per chunk.
	seed := uint64(271828183)*uint64(c+1) + 31415926535
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	for k := 0; k < pairs; k++ {
		x := 2*next() - 1
		y := 2*next() - 1
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx := x * f
		gy := y * f
		out.Sx += gx
		out.Sy += gy
		m := math.Max(math.Abs(gx), math.Abs(gy))
		l := int(m)
		if l > 9 {
			l = 9
		}
		out.Q[l]++
	}
	return out
}

// combine folds a set of partials in chunk order.
func combine(parts []partial) partial {
	var tot partial
	for _, p := range parts {
		tot.Sx += p.Sx
		tot.Sy += p.Sy
		for l := 0; l < 10; l++ {
			tot.Q[l] += p.Q[l]
		}
	}
	return tot
}

// checkOf folds a total into the verification scalar.
func checkOf(t partial) float64 {
	s := t.Sx + 3*t.Sy
	for l := 0; l < 10; l++ {
		s += float64(l+1) * t.Q[l]
	}
	return s
}

// Serial computes the reference total.
func Serial(p Params) partial {
	parts := make([]partial, p.Chunks)
	for c := range parts {
		parts[c] = chunkPartial(c, p.PairsPerChunk)
	}
	return combine(parts)
}

// RunLocal is the OpenMP baseline.
func RunLocal(p Params, threads int) wload.Result {
	m := wload.NewLocalMachine()
	parts := make([]partial, p.Chunks)
	var check float64
	t := m.Run(threads, func(lc *wload.LocalCtx) {
		lo, hi := wload.BlockRange(p.Chunks, threads, lc.ID)
		for c := lo; c < hi; c++ {
			parts[c] = chunkPartial(c, p.PairsPerChunk)
		}
		lc.Compute(sim.Time(hi-lo) * sim.Time(p.PairsPerChunk) * pairCost)
		lc.Barrier()
		if lc.ID == 0 {
			check = checkOf(combine(parts))
			lc.Compute(sim.Time(p.Chunks) * 12)
		}
		lc.Barrier()
	})
	return wload.Result{System: "local", Nodes: 1, Threads: threads, Time: t, Check: check}
}

// RunArgo computes on the DSM: threads deposit 12 partial values each into
// global memory; rank 0 combines after a barrier.
func RunArgo(cfg core.Config, p Params, tpn int) wload.Result {
	c := wload.MustCluster(cfg)
	defer c.Close()
	nt := cfg.Nodes * tpn
	gp := c.AllocF64(nt * 12) // [sx sy q0..q9] per thread
	gout := c.AllocF64(12)

	time := c.Run(tpn, func(th *core.Thread) {
		lo, hi := wload.BlockRange(p.Chunks, nt, th.Rank)
		var mine partial
		for ch := lo; ch < hi; ch++ {
			pt := chunkPartial(ch, p.PairsPerChunk)
			mine.Sx += pt.Sx
			mine.Sy += pt.Sy
			for l := 0; l < 10; l++ {
				mine.Q[l] += pt.Q[l]
			}
		}
		th.Compute(sim.Time(hi-lo) * sim.Time(p.PairsPerChunk) * pairCost)
		row := make([]float64, 12)
		row[0], row[1] = mine.Sx, mine.Sy
		copy(row[2:], mine.Q[:])
		th.WriteF64s(gp, th.Rank*12, row)
		th.Barrier()
		if th.Rank == 0 {
			all := make([]float64, nt*12)
			th.ReadF64s(gp, 0, nt*12, all)
			tot := make([]float64, 12)
			for r := 0; r < nt; r++ {
				for f := 0; f < 12; f++ {
					tot[f] += all[r*12+f]
				}
			}
			th.Compute(sim.Time(nt) * 12)
			th.WriteF64s(gout, 0, tot)
		}
		th.Barrier()
	})
	out := c.DumpF64(gout)
	var tot partial
	tot.Sx, tot.Sy = out[0], out[1]
	copy(tot.Q[:], out[2:])
	return wload.Result{
		System: "argo", Nodes: cfg.Nodes, Threads: nt, Time: time,
		Check: checkOf(tot), Stats: c.Stats(),
	}
}

// RunUPC is the PGAS port: all computation on affinity-local chunks, twelve
// upc_all_reduce calls at the end.
func RunUPC(nodes, rpn int, p Params) wload.Result {
	w := pgas.NewWorld(wload.NewFabric(nodes), rpn)
	size := w.Size
	var check float64
	t := w.Run(func(r *pgas.Rank) {
		lo, hi := wload.BlockRange(p.Chunks, size, r.ID)
		var mine partial
		for ch := lo; ch < hi; ch++ {
			pt := chunkPartial(ch, p.PairsPerChunk)
			mine.Sx += pt.Sx
			mine.Sy += pt.Sy
			for l := 0; l < 10; l++ {
				mine.Q[l] += pt.Q[l]
			}
		}
		r.Compute(sim.Time(hi-lo) * sim.Time(p.PairsPerChunk) * pairCost)
		vec := make([]float64, 12)
		vec[0], vec[1] = mine.Sx, mine.Sy
		copy(vec[2:], mine.Q[:])
		out := w.AllreduceVec(r, vec)
		var tot partial
		tot.Sx, tot.Sy = out[0], out[1]
		copy(tot.Q[:], out[2:])
		if r.ID == 0 {
			check = checkOf(tot)
		}
	})
	return wload.Result{System: "upc", Nodes: nodes, Threads: size, Time: t, Check: check}
}
