package harness

import (
	"fmt"
	"io"

	"argo/internal/workloads/blackscholes"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/ep"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/mm"
	"argo/internal/workloads/nbody"
	"argo/internal/workloads/wload"
)

func init() {
	register("fig13a", "Figure 13a: SPLASH-2 LU speedup (Argo vs Pthreads)", fig13a)
	register("fig13b", "Figure 13b: N-body speedup (Argo vs Pthreads vs MPI)", fig13b)
	register("fig13c", "Figure 13c: PARSEC blackscholes speedup (Argo vs Pthreads vs MPI)", fig13c)
	register("fig13d", "Figure 13d: Matrix Multiply speedup, small & large input", fig13d)
	register("fig13e", "Figure 13e: NAS EP speedup (Argo vs OpenMP vs UPC)", fig13e)
	register("fig13f", "Figure 13f: NAS CG speedup (Argo vs OpenMP vs UPC)", fig13f)
}

const scalingTPN = 15 // the paper leaves one core per node for the OS

// runner produces one system's result at a node count (or a thread count
// for single-machine baselines).
type runner struct {
	label string
	// kind: "argo"/"mpi"/"upc" scale over nodes; "local" scales threads.
	kind string
	run  func(nodes int) wload.Result
}

// scalingTable prints speedup-vs-scale series, all normalized to the serial
// (1-thread) run, and returns the cells whose answer is not the serial one.
func scalingTable(w io.Writer, title string, serial wload.Result, nodeCounts []int, localThreads []int, rs []runner) error {
	headers := []string{"Nodes", "Threads"}
	for _, r := range rs {
		headers = append(headers, r.label)
	}
	var rows [][]string
	var bad badCells
	// line runs the single-machine runners (which scale over threads) or the
	// others (over nodes) at one scale.
	line := func(local bool, nodes, threads int) {
		scale := nodes
		if local {
			scale = threads
		}
		row := []string{d(int64(nodes)), d(int64(threads))}
		for _, r := range rs {
			if (r.kind == "local") != local {
				row = append(row, "")
				continue
			}
			res := r.run(scale)
			row = append(row, bad.cell(f2(res.Speedup(serial)), res.Check, serial.Check,
				r.label, fmt.Sprintf("%d nodes, %d threads", nodes, threads)))
		}
		rows = append(rows, row)
	}
	// Single-machine baselines first: one row per thread count.
	for _, t := range localThreads {
		line(true, 1, t)
	}
	for _, n := range nodeCounts {
		line(false, n, n*scalingTPN)
	}
	Table(w, title+fmt.Sprintf(" — speedup over serial (%.3f virtual ms)", float64(serial.Time)/1e6), headers, rows)
	return bad.err()
}

func closeEnough(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	mag := b
	if mag < 0 {
		mag = -mag
	}
	if mag < 1 {
		mag = 1
	}
	return diff <= 1e-6*mag
}

func nodesFor(quick bool, max int) []int {
	all := []int{1, 2, 4, 8, 16, 32, 64, 128}
	var out []int
	for _, n := range all {
		if n > max {
			break
		}
		out = append(out, n)
	}
	if quick && len(out) > 3 {
		return out[:3]
	}
	return out
}

func threadsFor(quick bool) []int {
	if quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8, 16}
}

func fig13a(w io.Writer, quick bool) error {
	p := lu.DefaultParams()
	if quick {
		p = lu.Params{N: 96, Block: 16}
	}
	serial := lu.RunSerial(p)
	return scalingTable(w, "SPLASH-2 LU", serial, nodesFor(quick, 8), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return lu.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"Pthread", "local", func(t int) wload.Result { return lu.RunLocal(p, t) }},
	})
}

func fig13b(w io.Writer, quick bool) error {
	p := nbody.DefaultParams()
	if quick {
		p = nbody.Params{Bodies: 512, Steps: 2}
	}
	serial := nbody.RunSerial(p)
	return scalingTable(w, "N-body", serial, nodesFor(quick, 32), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return nbody.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"Pthread", "local", func(t int) wload.Result { return nbody.RunLocal(p, t) }},
		{"MPI", "mpi", func(n int) wload.Result { return nbody.RunMPI(n, 16, p) }},
	})
}

func fig13c(w io.Writer, quick bool) error {
	p := blackscholes.DefaultParams()
	if quick {
		p = blackscholes.Params{Options: 16384, Iters: 2}
	}
	serial := blackscholes.RunSerial(p)
	return scalingTable(w, "PARSEC blackscholes", serial, nodesFor(quick, 64), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return blackscholes.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"Pthread", "local", func(t int) wload.Result { return blackscholes.RunLocal(p, t) }},
		{"MPI", "mpi", func(n int) wload.Result { return blackscholes.RunMPI(n, 16, p) }},
	})
}

func fig13d(w io.Writer, quick bool) error {
	small, large := mm.SmallParams(), mm.LargeParams()
	if quick {
		small, large = mm.Params{N: 48}, mm.Params{N: 96}
	}
	nodes, threads := nodesFor(quick, 32), threadsFor(quick)
	var bad badCells
	// series runs every cell of one input before the other input is touched,
	// so each input's operands are generated once (mm keeps the last).
	series := func(p mm.Params, tag string) (local, argo, mpi []string) {
		serial := mm.RunSerial(p)
		cell := func(res wload.Result, system string, nodes int) string {
			return bad.cell(f2(res.Speedup(serial)), res.Check, serial.Check,
				system+tag, fmt.Sprintf("%d nodes, %d threads", nodes, res.Threads))
		}
		for _, t := range threads {
			local = append(local, cell(mm.RunLocal(p, t), "Pthread", 1))
		}
		for _, n := range nodes {
			argo = append(argo, cell(mm.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN), "Argo", n))
			mpi = append(mpi, cell(mm.RunMPI(n, 16, p), "MPI", n))
		}
		return
	}
	localL, argoL, mpiL := series(large, "-L")
	localS, argoS, mpiS := series(small, "-S")
	headers := []string{"Nodes", "Threads",
		"Argo-L", "MPI-L", "Argo-S", "MPI-S"}
	var rows [][]string
	for i, t := range threads {
		rows = append(rows, []string{"1", d(int64(t)), "", "", localL[i], localS[i]})
	}
	for i, n := range nodes {
		rows = append(rows, []string{d(int64(n)), d(int64(n * scalingTPN)), argoL[i], mpiL[i], argoS[i], mpiS[i]})
	}
	Table(w, fmt.Sprintf("Matrix Multiply %d² (L) and %d² (S) — speedup over serial", large.N, small.N), headers, rows)
	fmt.Fprintln(w, "Pthread columns (rows with empty Argo/MPI cells) are per-thread-count baselines")
	fmt.Fprintln(w, "of the small (Argo-S column) and large (Argo-L column) inputs respectively.")
	return bad.err()
}

func fig13e(w io.Writer, quick bool) error {
	p := ep.DefaultParams()
	if quick {
		p = ep.Params{Chunks: 1024, PairsPerChunk: 128}
	}
	serial := ep.RunSerial(p)
	return scalingTable(w, "NAS EP", serial, nodesFor(quick, 64), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return ep.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"OpenMP", "local", func(t int) wload.Result { return ep.RunLocal(p, t) }},
		{"UPC", "upc", func(n int) wload.Result { return ep.RunUPC(n, 16, p) }},
	})
}

func fig13f(w io.Writer, quick bool) error {
	p := cg.DefaultParams()
	if quick {
		p = cg.Params{N: 2048, PerRow: 12, Iters: 4}
	}
	serial := cg.RunSerial(p)
	return scalingTable(w, "NAS CG", serial, nodesFor(quick, 32), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return cg.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"OpenMP", "local", func(t int) wload.Result { return cg.RunLocal(p, t) }},
		{"UPC", "upc", func(n int) wload.Result { return cg.RunUPC(n, 16, p) }},
	})
}
