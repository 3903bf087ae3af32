// Package blackscholes reproduces the PARSEC blackscholes benchmark: an
// embarrassingly parallel option-pricing kernel with one barrier per
// iteration (§5.4, Figure 13c). Inputs are partitioned contiguously, so
// under Argo each node's input and output pages are effectively private —
// the workload where P/S3 classification and light synchronization let the
// DSM scale furthest (the paper runs it to 128 nodes, with the MPI port
// stalling at 16 nodes on gather overheads).
package blackscholes

import (
	"math"

	"argo/internal/core"
	"argo/internal/mpi"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

// Params sizes the benchmark (the evaluation's inputs: internal/harness/kernels.go).
type Params struct {
	Options int
	Iters   int
}

// opCost is the modeled computation time of pricing one option.
const opCost sim.Time = 250

// input returns the deterministic parameters of option i, identical across
// all variants.
func input(i int) (s, k, r, v, t float64) {
	h := func(m float64) float64 {
		x := math.Mod(float64(i)*m+0.123456, 1)
		return x
	}
	s = 50 + 100*h(0.6180339887)
	k = 50 + 100*h(0.7548776662)
	r = 0.01 + 0.09*h(0.2887043847)
	v = 0.10 + 0.50*h(0.4503599627)
	t = 0.25 + 1.75*h(0.9127652351)
	return
}

// tables holds the option table of the last option count asked for
// (wload.Memo), shared by every runner, sweep point and repetition.
var tables wload.Memo[int, []float64]

// table returns options 0..n-1 in the layout of the PARSEC original's array of
// structs, [S, K, r, v, T, price] per option with the price still zero. It is
// immutable: runners read it or copy it into the memory they price in.
func table(n int) []float64 {
	return tables.Get(n, func(n int) []float64 {
		tab := make([]float64, n*6)
		for i := 0; i < n; i++ {
			o := tab[i*6 : i*6+6]
			o[0], o[1], o[2], o[3], o[4] = input(i)
		}
		return tab
	})
}

// price computes the Black-Scholes price of a European call.
func price(s, k, r, v, t float64) float64 {
	d1 := (math.Log(s/k) + (r+v*v/2)*t) / (v * math.Sqrt(t))
	d2 := d1 - v*math.Sqrt(t)
	cnd := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	return s*cnd(d1) - k*math.Exp(-r*t)*cnd(d2)
}

// Serial computes all prices once (the reference result).
func Serial(p Params) []float64 {
	out := make([]float64, p.Options)
	for i := range out {
		out[i] = price(input(i))
	}
	return out
}

// RunLocal is the Pthreads baseline: threads of one machine, a barrier per
// iteration.
func RunLocal(p Params, threads int) wload.Result {
	m := wload.NewLocalMachine()
	out := make([]float64, p.Options)
	tab := table(p.Options)
	t := m.Run(threads, func(lc *wload.LocalCtx) {
		lo, hi := wload.BlockRange(p.Options, threads, lc.ID)
		for it := 0; it < p.Iters; it++ {
			for i := lo; i < hi; i++ {
				o := tab[i*6 : i*6+6]
				out[i] = price(o[0], o[1], o[2], o[3], o[4])
			}
			lc.Compute(sim.Time(hi-lo) * opCost)
			lc.Barrier()
		}
	})
	return wload.Result{System: "local", Nodes: 1, Threads: threads, Time: t, Check: wload.Checksum(out)}
}

// RunArgo prices options on the DSM. Like the PARSEC original, option data
// is an array of structs — [S, K, r, v, T, price] per option — so the price
// written every iteration makes every data page a *modified* private page:
// under P/S3 they self-downgrade through the write buffer, under naive P/S
// every page must be checkpointed at every barrier, and under S everything
// refetches.
func RunArgo(cfg core.Config, p Params, tpn int) wload.Result {
	n := p.Options
	need := int64(n*6*8) + 1<<20
	if cfg.MemoryBytes < need {
		cfg.MemoryBytes = need
	}
	c := wload.MustCluster(cfg)
	defer c.Close()
	data := c.AllocF64(n * 6)
	c.InitF64(data, table(n))

	nt := cfg.Nodes * tpn
	time := c.Run(tpn, func(th *core.Thread) {
		lo, hi := wload.BlockRange(n, nt, th.Rank)
		cnt := hi - lo
		buf := make([]float64, cnt*6)
		for it := 0; it < p.Iters; it++ {
			th.ReadF64s(data, lo*6, hi*6, buf)
			for i := 0; i < cnt; i++ {
				buf[i*6+5] = price(buf[i*6], buf[i*6+1], buf[i*6+2], buf[i*6+3], buf[i*6+4])
			}
			th.Compute(sim.Time(cnt) * opCost)
			th.WriteF64s(data, lo*6, buf)
			th.Barrier()
		}
	})
	final := c.DumpF64(data)
	prices := make([]float64, n)
	for i := 0; i < n; i++ {
		prices[i] = final[i*6+5]
	}
	return wload.Result{
		System: "argo", Nodes: cfg.Nodes, Threads: nt, Time: time,
		Check: wload.Checksum(prices), Stats: c.Stats(),
	}
}

// RunMPI is the message-passing port: inputs are scattered once; every
// iteration ends with a gather of the results at rank 0 (the collection
// step whose root bottleneck stops the MPI version from scaling).
func RunMPI(nodes, rpn int, p Params) wload.Result {
	w := mpi.NewWorld(wload.NewFabric(nodes), rpn)
	size := w.Size
	chunk := (p.Options + size - 1) / size
	padded := chunk * size
	var check float64
	t := w.Run(func(r *mpi.Rank) {
		var root [5][]float64
		if r.ID == 0 {
			for a := 0; a < 5; a++ {
				root[a] = make([]float64, padded)
			}
			for i, tab := 0, table(p.Options); i < p.Options; i++ {
				for a := range root {
					root[a][i] = tab[i*6+a]
				}
			}
		}
		var mine [5][]float64
		for a := 0; a < 5; a++ {
			mine[a] = r.Scatter(0, root[a], chunk)
		}
		res := make([]float64, chunk)
		var all []float64
		for it := 0; it < p.Iters; it++ {
			base := r.ID * chunk
			for i := 0; i < chunk; i++ {
				if base+i < p.Options {
					res[i] = price(mine[0][i], mine[1][i], mine[2][i], mine[3][i], mine[4][i])
				}
			}
			cnt := chunk
			if base+cnt > p.Options {
				cnt = p.Options - base
				if cnt < 0 {
					cnt = 0
				}
			}
			r.Compute(sim.Time(cnt) * opCost)
			all = r.Gather(0, res)
			r.Barrier()
		}
		if r.ID == 0 {
			check = wload.Checksum(all[:p.Options])
		}
	})
	return wload.Result{System: "mpi", Nodes: nodes, Threads: size, Time: t, Check: check}
}
