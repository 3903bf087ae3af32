// Priorityqueue: a cluster-wide job queue built from a pairing heap in
// global memory, driven through Vela's hierarchical queue delegation lock.
//
// Producers on every node delegate insert operations (detached — they go on
// working immediately), consumers delegate extract-min and wait for the
// result. The helper thread on whichever node holds the global lock
// executes whole batches of operations back to back, with one SI/SD fence
// pair per batch instead of one per critical section — the mechanism behind
// Figure 12. For contrast, the same run repeats with the fenced cohort
// lock, the paper's baseline.
//
//	go run ./examples/priorityqueue
package main

import (
	"fmt"
	"sync/atomic"

	"argo"
	"argo/internal/locks"
	"argo/internal/pairingheap"
)

const (
	nodes        = 4
	tpn          = 8
	opsPerThread = 150
)

func run(useHQDL bool) (opsPerUs float64, siFences int64) {
	cfg := argo.DefaultConfig(nodes)
	cluster := argo.MustNewCluster(cfg)
	defer cluster.Close()
	heap := pairingheap.NewDSMHeap(cluster, 4096+nodes*tpn*opsPerThread)

	var hqdl *locks.HQDLock
	var cohort locks.DSMLock
	if useHQDL {
		hqdl = locks.NewHQDLock(cluster)
	} else {
		cohort = locks.NewDSMCohortLock(cluster)
	}

	var extracted atomic.Int64
	// The delegated sections are built once: an insert's priority travels
	// as DelegateArg's argument word, so delegating allocates nothing per
	// operation (a closure capturing the priority would, every time).
	insert := heap.Insert
	extract := func(h *argo.Thread) {
		if _, ok := heap.ExtractMin(h); ok {
			extracted.Add(1)
		}
	}
	makespan := cluster.Run(tpn, func(t *argo.Thread) {
		if t.Rank == 0 {
			for i := 0; i < 1024; i++ {
				heap.Insert(t, int64(i*7%1024))
			}
		}
		t.InitDone()
		for k := 0; k < opsPerThread; k++ {
			priority := t.Rand().Int63n(1 << 20)
			if k%2 == 0 {
				if hqdl != nil {
					hqdl.DelegateArg(t, insert, priority)
				} else {
					cohort.Lock(t)
					heap.Insert(t, priority)
					cohort.Unlock(t)
				}
			} else {
				if hqdl != nil {
					hqdl.DelegateWait(t, extract)
				} else {
					cohort.Lock(t)
					if _, ok := heap.ExtractMin(t); ok {
						extracted.Add(1)
					}
					cohort.Unlock(t)
				}
			}
			t.Compute(300) // local work between operations
		}
		t.Barrier()
	})

	ops := int64(nodes * tpn * opsPerThread)
	return float64(ops) / (float64(makespan) / 1000), cluster.Stats().SIFences
}

func main() {
	hq, hqFences := run(true)
	co, coFences := run(false)
	fmt.Printf("job queue on %d nodes × %d threads, %d ops/thread\n", nodes, tpn, opsPerThread)
	fmt.Printf("  HQDL   : %6.3f ops/µs  (%d SI fences — one per batch)\n", hq, hqFences)
	fmt.Printf("  Cohort : %6.3f ops/µs  (%d SI fences — one per critical section)\n", co, coFences)
	fmt.Printf("  HQDL advantage: %.1fx\n", hq/co)
}
