package argo_test

import (
	"fmt"

	"argo"
)

// Example demonstrates the core API: build a cluster, allocate global
// memory, run SPMD threads with barrier synchronization, and read back the
// verified result.
func Example() {
	cfg := argo.DefaultConfig(2) // two nodes, 4 sockets × 4 cores each
	cfg.MemoryBytes = 4 << 20
	cluster := argo.MustNewCluster(cfg)

	xs := cluster.AllocI64(1000)
	cluster.Run(4, func(t *argo.Thread) {
		lo := t.Rank * xs.Len / t.NT
		hi := (t.Rank + 1) * xs.Len / t.NT
		for i := lo; i < hi; i++ {
			t.SetI64(xs, i, int64(i)*2)
		}
		t.Barrier() // self-downgrade → rendezvous → self-invalidate
		// After the barrier, every thread sees every write.
		if t.Rank == 0 && t.GetI64(xs, 999) != 1998 {
			panic("unreachable: the barrier orders all writes")
		}
	})

	sum := int64(0)
	for _, v := range cluster.DumpI64(xs) {
		sum += v
	}
	fmt.Println("sum:", sum)
	// Output: sum: 999000
}

// ExampleThread_SpMVF64 multiplies a sparse matrix by a shared vector read
// element-wise through the page cache, the access pattern of CG's matvec: one
// call per block of CSR rows instead of one GetF64 per nonzero, with the same
// sums, hits, misses and virtual time.
func ExampleThread_SpMVF64() {
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	cluster := argo.MustNewCluster(cfg)

	xs := cluster.AllocF64(4096)
	vals := make([]float64, xs.Len)
	for i := range vals {
		vals[i] = float64(i)
	}
	cluster.InitF64(xs, vals)

	// Three CSR rows: row 0 has four nonzeros, row 1 none, row 2 one.
	rowPtr := []int32{0, 4, 4, 5}
	cols, coef := []int32{7, 2048, 7, 4095, 1}, []float64{1, 0.5, -1, 2, 3}
	cluster.Run(1, func(t *argo.Thread) {
		q := make([]float64, 3)
		t.SpMVF64(xs, rowPtr, cols, coef, 0, 3, q)
		if t.Rank == 0 {
			fmt.Println("q:", q)
		}
	})
	// Output: q: [9214 0 3]
}

// ExampleHQDL shows queue delegation: critical sections are shipped to a
// helper thread instead of moving the lock (and the data) to each caller.
func ExampleHQDL() {
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	cluster := argo.MustNewCluster(cfg)
	counter := cluster.AllocI64(1)
	lock := argo.NewHQDL(cluster)

	cluster.Run(4, func(t *argo.Thread) {
		for k := 0; k < 100; k++ {
			lock.DelegateWait(t, func(h *argo.Thread) {
				h.SetI64(counter, 0, h.GetI64(counter, 0)+1)
			})
		}
	})
	fmt.Println("counter:", cluster.DumpI64(counter)[0])
	// Output: counter: 800
}

// ExampleNewArena shows dynamic global-memory management with free().
func ExampleNewArena() {
	cluster := argo.MustNewCluster(argo.DefaultConfig(1))
	arena := argo.NewArena(cluster, 1<<20)

	a, _ := arena.Alloc(4096, 0)
	b, _ := arena.Alloc(4096, 0)
	_ = b
	if err := arena.Free(a); err != nil {
		panic(err)
	}
	fmt.Println("live allocations:", arena.Live())
	// Output: live allocations: 1
}
