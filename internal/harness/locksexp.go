package harness

import (
	"fmt"
	"io"

	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

func init() {
	register("fig11", "Figure 11: single-node lock throughput (QD vs Cohort vs Pthreads mutex)", unchecked(fig11))
	register("fig12", "Figure 12: DSM lock throughput (Argo HQDL vs Cohort)", unchecked(fig12))
}

// fig11 reproduces the single-machine priority-queue throughput curves.
func fig11(w io.Writer, quick bool) {
	threads := []int{1, 2, 4, 6, 8, 10, 12, 14, 16}
	p := pqbench.DefaultParams()
	p.WorkUnits = 16 // light local work: the lock is the bottleneck
	if quick {
		threads = []int{1, 4, 8, 16}
		p.OpsPerThread = 80
	}
	kinds := []pqbench.NativeLockKind{pqbench.NativeQD, pqbench.NativeCohort, pqbench.NativePthread}
	headers := []string{"Threads", "QD ops/µs", "Cohort ops/µs", "Pthreads ops/µs"}
	var rows [][]string
	for _, t := range threads {
		row := []string{d(int64(t))}
		for _, k := range kinds {
			r := pqbench.RunNative(k, t, p)
			row = append(row, f3(r.OpsPerUs))
		}
		rows = append(rows, row)
	}
	Table(w, "Priority-queue throughput on one machine", headers, rows)
	fmt.Fprintln(w, "Expected shape (Fig. 11): QD highest (sections batch on one core, data stays hot),")
	fmt.Fprintln(w, "Cohort in between (socket-local handovers), Pthreads mutex lowest and degrading.")
}

// fig12 reproduces the DSM throughput curves: 15 threads per node, the heap
// in global memory.
func fig12(w io.Writer, quick bool) {
	nodes := []int{1, 2, 4, 8, 16, 32}
	tpn := 15
	p := pqbench.DefaultParams() // 48 work units, as in the paper
	if quick {
		nodes = []int{1, 2, 4}
		tpn = 4
		p.OpsPerThread = 60
	}
	headers := []string{"Nodes", "Threads", "Argo(HQDL) ops/µs", "Cohort ops/µs", "UPC ops/µs"}
	var rows [][]string
	for _, n := range nodes {
		hq := pqbench.RunDSM(pqbench.DSMHQDL, wload.ArgoConfig(n, 128<<20), tpn, p)
		co := pqbench.RunDSM(pqbench.DSMCohort, wload.ArgoConfig(n, 128<<20), tpn, p)
		up := pqbench.RunUPC(n, tpn, p)
		rows = append(rows, []string{
			d(int64(n)), d(int64(n * tpn)), f3(hq.OpsPerUs), f3(co.OpsPerUs), f3(up.OpsPerUs),
		})
	}
	Table(w, "Priority-queue throughput over the DSM (15 threads/node)", headers, rows)
	fmt.Fprintln(w, "Expected shape (Fig. 12): HQDL drops once going 1→2 nodes, then stays roughly")
	fmt.Fprintln(w, "flat; the fenced Cohort port collapses — every critical section pays SI+SD and")
	fmt.Fprintln(w, "the refetch misses the SI causes. The UPC column measures §2.1's observation:")
	fmt.Fprintln(w, "with no caching, every critical-section access is a remote operation.")
}
