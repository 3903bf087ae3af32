package harness

import (
	"fmt"
	"math"
	"sync"

	"argo/internal/core"
	"argo/internal/workloads/blackscholes"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/ep"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/mm"
	"argo/internal/workloads/nbody"
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

// kernels is the table of the six application kernels of §5, in -bench name
// order, and the one place their inputs are written. Each row holds a
// kernel's names, its fig8–10 write-buffer size, its inputs for the two uses
// — sweep (fig8–10) and scaling (fig13) — each at -quick and at full size,
// and its fig13 figure. A mid-size input set, or one closer to the paper's,
// is one more entry per row.
var kernels = []*kernel{
	{name: "blackscholes", label: "Blackscholes", wb: 8192,
		sweep:   sizes[*input]{bsIn(blackscholes.Params{Options: 8192, Iters: 3}), bsIn(blackscholes.Params{Options: 32768, Iters: 3})},
		scaling: []sizes[*input]{{bsIn(blackscholes.Params{Options: 16384, Iters: 2}), bsIn(blackscholes.Params{Options: 1 << 17, Iters: 4})}},
		fig:     "fig13c", title: "Figure 13c: PARSEC blackscholes speedup (Argo vs Pthreads vs MPI)",
		table: "PARSEC blackscholes", maxNodes: 64, local: "Pthread", port: "MPI"},
	{name: "cg", label: "CG", wb: 256,
		sweep:   sizes[*input]{cgIn(cg.Params{N: 1024, PerRow: 12, Iters: 4}), cgIn(cg.Params{N: 4096, PerRow: 12, Iters: 4})},
		scaling: []sizes[*input]{{cgIn(cg.Params{N: 2048, PerRow: 12, Iters: 4}), cgIn(cg.Params{N: 65536, PerRow: 32, Iters: 8})}},
		fig:     "fig13f", title: "Figure 13f: NAS CG speedup (Argo vs OpenMP vs UPC)",
		table: "NAS CG", maxNodes: 32, local: "OpenMP", port: "UPC"},
	{name: "ep", label: "EP", wb: 32,
		sweep:   sizes[*input]{epIn(ep.Params{Chunks: 256, PairsPerChunk: 128}), epIn(ep.Params{Chunks: 1024, PairsPerChunk: 128})},
		scaling: []sizes[*input]{{epIn(ep.Params{Chunks: 1024, PairsPerChunk: 128}), epIn(ep.Params{Chunks: 4096, PairsPerChunk: 256})}},
		fig:     "fig13e", title: "Figure 13e: NAS EP speedup (Argo vs OpenMP vs UPC)",
		table: "NAS EP", maxNodes: 64, local: "OpenMP", port: "UPC"},
	{name: "lu", label: "LU", wb: 8192,
		sweep:   sizes[*input]{luIn(lu.Params{N: 64, Block: 16}), luIn(lu.Params{N: 96, Block: 16})},
		scaling: []sizes[*input]{{luIn(lu.Params{N: 96, Block: 16}), luIn(lu.Params{N: 384, Block: 32})}},
		fig:     "fig13a", title: "Figure 13a: SPLASH-2 LU speedup (Argo vs Pthreads)",
		table: "SPLASH-2 LU", maxNodes: 8, local: "Pthread"},
	// MM runs two inputs in fig13, the paper's 5000² and 2000² roles, large
	// first so that each input's operands are generated once (mm keeps the
	// last).
	{name: "mm", label: "MM", wb: 128,
		sweep: sizes[*input]{mmIn(mm.Params{N: 48}, ""), mmIn(mm.Params{N: 192}, "")},
		scaling: []sizes[*input]{
			{mmIn(mm.Params{N: 96}, "L"), mmIn(mm.Params{N: 288}, "L")},
			{mmIn(mm.Params{N: 48}, "S"), mmIn(mm.Params{N: 96}, "S")},
		},
		fig: "fig13d", title: "Figure 13d: Matrix Multiply speedup, small & large input",
		table: "Matrix Multiply", maxNodes: 32, local: "Pthread", port: "MPI"},
	{name: "nbody", label: "Nbody", wb: 8192,
		sweep:   sizes[*input]{nbIn(nbody.Params{Bodies: 128, Steps: 3}), nbIn(nbody.Params{Bodies: 512, Steps: 3})},
		scaling: []sizes[*input]{{nbIn(nbody.Params{Bodies: 512, Steps: 2}), nbIn(nbody.Params{Bodies: 2048, Steps: 3})}},
		fig:     "fig13b", title: "Figure 13b: N-body speedup (Argo vs Pthreads vs MPI)",
		table: "N-body", maxNodes: 32, local: "Pthread", port: "MPI"},
}

// The lock benchmark's inputs (§5.3). Figure 11 runs light local work, so the
// lock is the bottleneck; Figure 12 the paper's 48 work units, and its full
// input is also argo-scope's pq-* rows.
var (
	fig11Input = sizes[pqbench.Params]{
		quick: pqbench.Params{OpsPerThread: 80, WorkUnits: 16, Preload: 512},
		full:  pqbench.Params{OpsPerThread: 200, WorkUnits: 16, Preload: 512},
	}
	fig12Input = sizes[pqbench.Params]{
		quick: pqbench.Params{OpsPerThread: 60, WorkUnits: 48, Preload: 512},
		full:  pqbench.Params{OpsPerThread: 200, WorkUnits: 48, Preload: 512},
	}
)

func bsIn(p blackscholes.Params) *input {
	return newInput(p, blackscholes.RunArgo, blackscholes.RunLocal, blackscholes.RunMPI)
}
func cgIn(p cg.Params) *input    { return newInput(p, cg.RunArgo, cg.RunLocal, cg.RunUPC) }
func epIn(p ep.Params) *input    { return newInput(p, ep.RunArgo, ep.RunLocal, ep.RunUPC) }
func luIn(p lu.Params) *input    { return newInput(p, lu.RunArgo, lu.RunLocal, nil) }
func nbIn(p nbody.Params) *input { return newInput(p, nbody.RunArgo, nbody.RunLocal, nbody.RunMPI) }

// mmIn is an MM input; fig13d tags its two S and L, which suffixes their
// columns and, with the dimension, names their tables.
func mmIn(p mm.Params, tag string) *input {
	in := newInput(p, mm.RunArgo, mm.RunLocal, mm.RunMPI)
	in.size, in.tag = fmt.Sprintf("%d²", p.N), tag
	return in
}

// kernel is one row of the table.
type kernel struct {
	name  string // the -bench name
	label string // the fig8–10 row and column label
	wb    int    // the fig8–10 write-buffer pages, chosen in §5.2

	sweep   sizes[*input]   // fig8–10
	scaling []sizes[*input] // fig13: one input, or MM's large and small

	fig, title string // the fig13 experiment
	table      string // its table's title
	maxNodes   int    // the most nodes fig13 runs
	local      string // the single-machine baseline: Pthread or OpenMP
	port       string // the MPI or UPC port, or "" where the paper has none
}

// sizes is one use of a kernel's input, at -quick and at full size.
type sizes[T any] struct{ quick, full T }

func (s sizes[T]) at(quick bool) T {
	if quick {
		return s.quick
	}
	return s.full
}

// portRPN is the ranks per node of the MPI and UPC ports.
const portRPN = 16

// input is one parameter set of a kernel, closed over by its runners: Argo on
// a cluster, the single machine (Pthreads/OpenMP) over threads, and the MPI or
// UPC port over nodes (nil where the paper has none). Its serial reference is
// its single-machine run at one thread, computed once.
type input struct {
	argo  func(cfg core.Config, tpn int) wload.Result
	local func(threads int) wload.Result
	port  func(nodes int) wload.Result
	size  string // MM's dimension
	tag   string // fig13d's S or L

	once sync.Once
	ref  wload.Result
}

func newInput[P any](p P, argo func(core.Config, P, int) wload.Result, local func(P, int) wload.Result,
	port func(int, int, P) wload.Result) *input {
	in := &input{
		argo:  func(cfg core.Config, tpn int) wload.Result { return argo(cfg, p, tpn) },
		local: func(threads int) wload.Result { return local(p, threads) },
	}
	if port != nil {
		in.port = func(nodes int) wload.Result { return port(nodes, portRPN, p) }
	}
	return in
}

func (in *input) serial() wload.Result {
	in.once.Do(func() { in.ref = in.local(1) })
	return in.ref
}

// check is nil when r's answer is in's serial one, and otherwise names the
// kernel, the variant and the scale that gave it.
func (k *kernel) check(in *input, r wload.Result, variant string, nodes, threads int) error {
	ref := in.serial().Check
	if r.Check == ref || closeEnough(r.Check, ref) {
		return nil
	}
	return fmt.Errorf("%s %s at %d nodes, %d threads: answer %v, serial %v", k.name, variant, nodes, threads, r.Check, ref)
}

// argo runs in on the cluster cfg describes, tpn threads per node, and checks
// its answer.
func (k *kernel) argo(in *input, cfg core.Config, tpn int, variant string) (wload.Result, error) {
	r := in.argo(cfg, tpn)
	return r, k.check(in, r, variant, cfg.Nodes, cfg.Nodes*tpn)
}

// closeEnough reports whether a is b to a relative 1e-6 (absolute below 1).
func closeEnough(a, b float64) bool { return math.Abs(a-b) <= 1e-6*max(math.Abs(b), 1) }

// Bench is one -bench choice of a tool. Run runs it on the cluster cfg
// describes, tpn threads per node; its error names a wrong answer by kernel,
// variant and scale. A lock's result is its time alone, with no answer to
// check.
type Bench struct {
	Name string
	Run  func(cfg core.Config, tpn int, variant string) (wload.Result, error)
}

// ScopeBenches are argo-scope's: each kernel at its fig13 -quick input (MM's
// large one), then the three DSM locks at Figure 12's full input.
func ScopeBenches() []Bench {
	lock := func(name string, kind pqbench.DSMLockKind) Bench {
		return Bench{name, func(cfg core.Config, tpn int, _ string) (wload.Result, error) {
			return wload.Result{Time: pqbench.RunDSM(kind, cfg, tpn, fig12Input.full).Time}, nil
		}}
	}
	return append(benches(func(k *kernel) *input { return k.scaling[0].quick }),
		lock("pq-cohort", pqbench.DSMCohort), lock("pq-hqdl", pqbench.DSMHQDL), lock("pq-mutex", pqbench.DSMMutex))
}

// SweepBenches are argo-sweep's: each kernel at its full fig8–10 input.
func SweepBenches() []Bench { return benches(func(k *kernel) *input { return k.sweep.full }) }

func benches(pick func(*kernel) *input) []Bench {
	var out []Bench
	for _, k := range kernels {
		in := pick(k)
		out = append(out, Bench{k.name, func(cfg core.Config, tpn int, variant string) (wload.Result, error) {
			return k.argo(in, cfg, tpn, variant)
		}})
	}
	return out
}
