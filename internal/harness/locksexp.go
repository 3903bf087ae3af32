package harness

import (
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

func init() {
	register("fig11", "Figure 11: single-node lock throughput (QD vs Cohort vs Pthreads mutex)", fig11)
	register("fig12", "Figure 12: DSM lock throughput (Argo HQDL vs Cohort)", fig12)
}

// fig11 reproduces the single-machine priority-queue throughput curves.
func fig11(quick bool) ([]Table, error) {
	threads := []int{1, 2, 4, 6, 8, 10, 12, 14, 16}
	if quick {
		threads = []int{1, 4, 8, 16}
	}
	p := fig11Input.at(quick)
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
	return []Table{{Title: "Priority-queue throughput on one machine", Headers: headers, Rows: rows,
		Note: "Expected shape (Fig. 11): QD highest (sections batch on one core, data stays hot),\n" +
			"Cohort in between (socket-local handovers), Pthreads mutex lowest and degrading."}}, nil
}

// fig12 reproduces the DSM throughput curves: 15 threads per node, the heap
// in global memory.
func fig12(quick bool) ([]Table, error) {
	nodes := []int{1, 2, 4, 8, 16, 32}
	tpn := 15
	if quick {
		nodes = []int{1, 2, 4}
		tpn = 4
	}
	p := fig12Input.at(quick)
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
	return []Table{{Title: "Priority-queue throughput over the DSM (15 threads/node)", Headers: headers, Rows: rows,
		Note: "Expected shape (Fig. 12): HQDL drops once going 1→2 nodes, then stays roughly\n" +
			"flat; the fenced Cohort port collapses — every critical section pays SI+SD and\n" +
			"the refetch misses the SI causes. The UPC column measures §2.1's observation:\n" +
			"with no caching, every critical-section access is a remote operation."}}, nil
}
