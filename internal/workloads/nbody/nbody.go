// Package nbody reproduces the paper's custom n-body benchmark
// (Figure 13b): a simple iterative all-pairs simulation with barriers
// separating the steps. Every thread reads all positions and updates only
// its own block, so position pages are single-writer (S,SW) under Pyxis —
// the producer keeps its pages across barriers while consumers refetch,
// Carina's producer-consumer sweet spot.
package nbody

import (
	"math"
	"slices"

	"argo/internal/core"
	"argo/internal/mpi"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

// Params sizes the benchmark (the evaluation's inputs: internal/harness/kernels.go).
type Params struct {
	Bodies int
	Steps  int
}

// interCost is the modeled cost of one pairwise interaction.
const interCost sim.Time = 25

const (
	dt  = 0.01
	eps = 1e-2
)

// initBody returns body i's deterministic initial state.
func initBody(i int) (px, py, vx, vy, mass float64) {
	f := func(m float64) float64 { return math.Mod(float64(i)*m+0.5, 1) }
	px = 10 * (f(0.6180339887) - 0.5)
	py = 10 * (f(0.7548776662) - 0.5)
	vx = f(0.2887043847) - 0.5
	vy = f(0.4503599627) - 0.5
	mass = 0.5 + f(0.9127652351)
	return
}

// bodies is the initial state of a body count, one array per field.
type bodies struct{ px, py, vx, vy, mass []float64 }

// initial holds the initial state of the last body count asked for
// (wload.Memo), shared by every runner, sweep point and repetition.
var initial wload.Memo[int, *bodies]

// initialState returns bodies 0..n-1 as InitBody gives them. The arrays are
// immutable: a runner copies the ones it advances.
func initialState(n int) *bodies {
	return initial.Get(n, func(n int) *bodies {
		b := &bodies{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
		for i := 0; i < n; i++ {
			b.px[i], b.py[i], b.vx[i], b.vy[i], b.mass[i] = initBody(i)
		}
		return b
	})
}

// forcesFor accumulates the force on bodies [lo,hi) from all bodies.
func forcesFor(fx, fy []float64, px, py, mass []float64, lo, hi int) {
	n := len(px)
	for i := lo; i < hi; i++ {
		var ax, ay float64
		for j := 0; j < n; j++ {
			dx := px[j] - px[i]
			dy := py[j] - py[i]
			d2 := dx*dx + dy*dy + eps
			inv := mass[j] / (d2 * math.Sqrt(d2))
			ax += dx * inv
			ay += dy * inv
		}
		fx[i-lo] = ax
		fy[i-lo] = ay
	}
}

// Serial runs the reference simulation and returns final px,py.
func Serial(p Params) ([]float64, []float64) {
	n := p.Bodies
	px := make([]float64, n)
	py := make([]float64, n)
	vx := make([]float64, n)
	vy := make([]float64, n)
	mass := make([]float64, n)
	for i := 0; i < n; i++ {
		px[i], py[i], vx[i], vy[i], mass[i] = initBody(i)
	}
	fx := make([]float64, n)
	fy := make([]float64, n)
	for s := 0; s < p.Steps; s++ {
		forcesFor(fx, fy, px, py, mass, 0, n)
		for i := 0; i < n; i++ {
			vx[i] += dt * fx[i]
			vy[i] += dt * fy[i]
			px[i] += dt * vx[i]
			py[i] += dt * vy[i]
		}
	}
	return px, py
}

// checkOf folds final positions into the verification scalar.
func checkOf(px, py []float64) float64 {
	return check(wload.Checksum(px), wload.Checksum(py))
}

// check combines the checksums of the final x and y positions.
func check(sx, sy float64) float64 { return sx + 3*sy }

// RunLocal is the Pthreads baseline.
func RunLocal(p Params, threads int) wload.Result {
	n := p.Bodies
	m := wload.NewLocalMachine()
	in := initialState(n)
	px, py, mass := slices.Clone(in.px), slices.Clone(in.py), in.mass
	vx, vy := slices.Clone(in.vx), slices.Clone(in.vy)
	t := m.Run(threads, func(lc *wload.LocalCtx) {
		lo, hi := wload.BlockRange(n, threads, lc.ID)
		fx := make([]float64, hi-lo)
		fy := make([]float64, hi-lo)
		for s := 0; s < p.Steps; s++ {
			forcesFor(fx, fy, px, py, mass, lo, hi)
			lc.Compute(sim.Time(hi-lo) * sim.Time(n) * interCost)
			lc.Barrier()
			for i := lo; i < hi; i++ {
				vx[i] += dt * fx[i-lo]
				vy[i] += dt * fy[i-lo]
				px[i] += dt * vx[i]
				py[i] += dt * vy[i]
			}
			lc.Barrier()
		}
	})
	return wload.Result{System: "local", Nodes: 1, Threads: threads, Time: t, Check: checkOf(px, py)}
}

// RunArgo runs the simulation on the DSM.
func RunArgo(cfg core.Config, p Params, tpn int) wload.Result {
	return runArgo(cfg, p, tpn, wload.ChecksumOf)
}

// runArgo is RunArgo with the checksums of the final positions taken by fold
// (the tests check it against the fold over a dump).
func runArgo(cfg core.Config, p Params, tpn int, fold func(*core.Cluster, core.F64Slice) float64) wload.Result {
	n := p.Bodies
	c := wload.MustCluster(cfg)
	defer c.Close()
	gpx := c.AllocF64(n)
	gpy := c.AllocF64(n)
	gvx := c.AllocF64(n)
	gvy := c.AllocF64(n)
	gm := c.AllocF64(n)
	in := initialState(n)
	c.InitF64(gpx, in.px)
	c.InitF64(gpy, in.py)
	c.InitF64(gvx, in.vx)
	c.InitF64(gvy, in.vy)
	c.InitF64(gm, in.mass)

	nt := cfg.Nodes * tpn
	time := c.Run(tpn, func(th *core.Thread) {
		lo, hi := wload.BlockRange(n, nt, th.Rank)
		cnt := hi - lo
		px := make([]float64, n)
		py := make([]float64, n)
		mass := make([]float64, n)
		vx := make([]float64, cnt)
		vy := make([]float64, cnt)
		fx := make([]float64, cnt)
		fy := make([]float64, cnt)
		th.ReadF64s(gm, 0, n, mass)
		for s := 0; s < p.Steps; s++ {
			// Read the whole (fresh) position arrays through the cache.
			th.ReadF64s(gpx, 0, n, px)
			th.ReadF64s(gpy, 0, n, py)
			forcesFor(fx, fy, px, py, mass, lo, hi)
			th.Compute(sim.Time(cnt) * sim.Time(n) * interCost)
			th.Barrier()
			// Velocities live in global memory too; their pages stay
			// private to the owning node (exempt from SI under P/S3).
			th.ReadF64s(gvx, lo, hi, vx)
			th.ReadF64s(gvy, lo, hi, vy)
			for i := 0; i < cnt; i++ {
				vx[i] += dt * fx[i]
				vy[i] += dt * fy[i]
				px[lo+i] += dt * vx[i]
				py[lo+i] += dt * vy[i]
			}
			th.WriteF64s(gvx, lo, vx)
			th.WriteF64s(gvy, lo, vy)
			th.WriteF64s(gpx, lo, px[lo:hi])
			th.WriteF64s(gpy, lo, py[lo:hi])
			th.Barrier()
		}
		th.Barrier()
	})
	return wload.Result{
		System: "argo", Nodes: cfg.Nodes, Threads: nt, Time: time,
		Check: check(fold(c, gpx), fold(c, gpy)), Stats: c.Stats(),
	}
}

// RunMPI is the message-passing port: a ring allgather of positions every
// step.
func RunMPI(nodes, rpn int, p Params) wload.Result {
	n := p.Bodies
	w := mpi.NewWorld(wload.NewFabric(nodes), rpn)
	size := w.Size
	per := (n + size - 1) / size
	in := initialState(n)
	var check float64
	t := w.Run(func(r *mpi.Rank) {
		lo := r.ID * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		cnt := hi - lo
		// Everyone starts from all the initial state (deterministic, free).
		px := make([]float64, per*size)
		py := make([]float64, per*size)
		copy(px, in.px)
		copy(py, in.py)
		vx, vy := slices.Clone(in.vx[lo:hi]), slices.Clone(in.vy[lo:hi])
		fx := make([]float64, cnt)
		fy := make([]float64, cnt)
		for s := 0; s < p.Steps; s++ {
			forcesFor(fx, fy, px[:n], py[:n], in.mass, lo, hi)
			r.Compute(sim.Time(cnt) * sim.Time(n) * interCost)
			for i := 0; i < cnt; i++ {
				vx[i] += dt * fx[i]
				vy[i] += dt * fy[i]
				px[lo+i] += dt * vx[i]
				py[lo+i] += dt * vy[i]
			}
			// Exchange updated blocks.
			myx := append([]float64(nil), px[lo:lo+per]...)
			myy := append([]float64(nil), py[lo:lo+per]...)
			copy(px, r.AllgatherRing(myx))
			copy(py, r.AllgatherRing(myy))
		}
		if r.ID == 0 {
			check = checkOf(px[:n], py[:n])
		}
	})
	return wload.Result{System: "mpi", Nodes: nodes, Threads: size, Time: t, Check: check}
}
