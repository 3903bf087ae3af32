// Quickstart: a four-node Argo cluster computes a global dot product.
//
// Demonstrates the essentials of the public API: building a cluster,
// allocating global memory, launching SPMD threads, the hierarchical
// barrier, and reading the protocol statistics afterwards.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"argo"
)

func main() {
	cfg := argo.DefaultConfig(4) // 4 nodes × 16 cores, P/S3 classification
	cfg.MemoryBytes = 16 << 20
	cluster := argo.MustNewCluster(cfg)
	defer cluster.Close()

	const n = 1 << 16
	xs := cluster.AllocF64(n)
	ys := cluster.AllocF64(n)
	partials := cluster.AllocF64(64) // one slot per thread

	// Initialization is free and uncounted (the paper measures only the
	// parallel section and resets classification after init).
	init := make([]float64, n)
	for i := range init {
		init[i] = float64(i%100) / 100
	}
	cluster.InitF64(xs, init)
	cluster.InitF64(ys, init)

	const tpn = 15
	makespan := cluster.Run(tpn, func(t *argo.Thread) {
		lo := t.Rank * n / t.NT
		hi := (t.Rank + 1) * n / t.NT
		a := make([]float64, hi-lo)
		b := make([]float64, hi-lo)
		t.ReadF64s(xs, lo, hi, a) // streams through the node's page cache
		t.ReadF64s(ys, lo, hi, b)
		var dot float64
		for i := range a {
			dot += a[i] * b[i]
		}
		t.Compute(int64(hi-lo) * 2) // 2 ns per multiply-add
		t.SetF64(partials, t.Rank, dot)

		t.Barrier() // SD fence → global rendezvous → SI fence

		if t.Rank == 0 {
			sum := 0.0
			all := make([]float64, t.NT)
			t.ReadF64s(partials, 0, t.NT, all)
			for _, v := range all {
				sum += v
			}
			fmt.Printf("dot(x,y) = %.2f over %d threads on %d nodes\n", sum, t.NT, cfg.Nodes)
		}
		t.Barrier()
	})

	fmt.Printf("virtual makespan: %.3f ms\n", float64(makespan)/1e6)
	fmt.Printf("protocol activity:\n%s", cluster.Stats())
}
