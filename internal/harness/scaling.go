package harness

import (
	"errors"
	"fmt"

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

// scalingTable is a table of speedup-vs-scale series, all normalized to the
// serial (1-thread) run, and the error naming the cells whose answer is not
// the serial one.
func scalingTable(title string, serial wload.Result, nodeCounts []int, localThreads []int, rs []runner) ([]Table, error) {
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
	return []Table{{Title: title + fmt.Sprintf(" — speedup over serial (%.3f virtual ms)", float64(serial.Time)/1e6),
		Headers: headers, Rows: rows}}, bad.err()
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

func fig13a(quick bool) ([]Table, error) {
	p := lu.DefaultParams()
	if quick {
		p = lu.Params{N: 96, Block: 16}
	}
	serial := lu.RunSerial(p)
	return scalingTable("SPLASH-2 LU", serial, nodesFor(quick, 8), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return lu.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"Pthread", "local", func(t int) wload.Result { return lu.RunLocal(p, t) }},
	})
}

func fig13b(quick bool) ([]Table, error) {
	p := nbody.DefaultParams()
	if quick {
		p = nbody.Params{Bodies: 512, Steps: 2}
	}
	serial := nbody.RunSerial(p)
	return scalingTable("N-body", serial, nodesFor(quick, 32), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return nbody.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"Pthread", "local", func(t int) wload.Result { return nbody.RunLocal(p, t) }},
		{"MPI", "mpi", func(n int) wload.Result { return nbody.RunMPI(n, 16, p) }},
	})
}

func fig13c(quick bool) ([]Table, error) {
	p := blackscholes.DefaultParams()
	if quick {
		p = blackscholes.Params{Options: 16384, Iters: 2}
	}
	serial := blackscholes.RunSerial(p)
	return scalingTable("PARSEC blackscholes", serial, nodesFor(quick, 64), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return blackscholes.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"Pthread", "local", func(t int) wload.Result { return blackscholes.RunLocal(p, t) }},
		{"MPI", "mpi", func(n int) wload.Result { return blackscholes.RunMPI(n, 16, p) }},
	})
}

// fig13d runs the large input's table before the small one's, so each
// input's operands are generated once (mm keeps the last).
func fig13d(quick bool) ([]Table, error) {
	small, large := mm.SmallParams(), mm.LargeParams()
	if quick {
		small, large = mm.Params{N: 48}, mm.Params{N: 96}
	}
	input := func(p mm.Params, tag string) ([]Table, error) {
		return scalingTable(fmt.Sprintf("Matrix Multiply %d² (%s)", p.N, tag), mm.RunSerial(p),
			nodesFor(quick, 32), threadsFor(quick), []runner{
				{"Argo-" + tag, "argo", func(n int) wload.Result {
					return mm.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
				}},
				{"Pthread-" + tag, "local", func(t int) wload.Result { return mm.RunLocal(p, t) }},
				{"MPI-" + tag, "mpi", func(n int) wload.Result { return mm.RunMPI(n, 16, p) }},
			})
	}
	lt, lerr := input(large, "L")
	st, serr := input(small, "S")
	return append(lt, st...), errors.Join(lerr, serr)
}

func fig13e(quick bool) ([]Table, error) {
	p := ep.DefaultParams()
	if quick {
		p = ep.Params{Chunks: 1024, PairsPerChunk: 128}
	}
	serial := ep.RunSerial(p)
	return scalingTable("NAS EP", serial, nodesFor(quick, 64), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return ep.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"OpenMP", "local", func(t int) wload.Result { return ep.RunLocal(p, t) }},
		{"UPC", "upc", func(n int) wload.Result { return ep.RunUPC(n, 16, p) }},
	})
}

func fig13f(quick bool) ([]Table, error) {
	p := cg.DefaultParams()
	if quick {
		p = cg.Params{N: 2048, PerRow: 12, Iters: 4}
	}
	serial := cg.RunSerial(p)
	return scalingTable("NAS CG", serial, nodesFor(quick, 32), threadsFor(quick), []runner{
		{"Argo", "argo", func(n int) wload.Result {
			return cg.RunArgo(wload.ArgoConfig(n, 64<<20), p, scalingTPN)
		}},
		{"OpenMP", "local", func(t int) wload.Result { return cg.RunLocal(p, t) }},
		{"UPC", "upc", func(n int) wload.Result { return cg.RunUPC(n, 16, p) }},
	})
}
