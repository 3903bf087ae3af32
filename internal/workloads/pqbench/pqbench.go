// Package pqbench is the paper's lock-synchronization microbenchmark
// (§5.3, Figures 11 and 12): N threads repeatedly perform thread-local work
// followed by a 50/50 mix of insert and extract_min on a shared pairing-heap
// priority queue protected by the lock under test. insert needs no result,
// so delegating threads detach; extract_min waits for its value.
//
// The native family (Figure 11) runs on one machine with the heap's cache
// lines modeled as migratory data; the DSM family (Figure 12) runs the heap
// in Argo's global memory, where the migration cost emerges from the page
// cache and the fences of the lock being tested.
package pqbench

import (
	"math/rand"
	"runtime"

	"argo/internal/core"
	"argo/internal/locks"
	"argo/internal/pairingheap"
	"argo/internal/pgas"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

// Params configures the microbenchmark (the evaluation's inputs:
// internal/harness/kernels.go).
type Params struct {
	OpsPerThread int
	WorkUnits    int // thread-local work units between operations
	Preload      int // initial heap elements
}

// workUnitCost is the modeled cost of one local work unit (two updates to
// a thread-local 64-integer array).
const workUnitCost sim.Time = 8

// heapOpCost is the modeled computation inside one heap operation
// (pointer chasing and comparisons, excluding data movement).
const heapOpCost sim.Time = 120

// heapLines is how many migratory cache lines a heap operation touches.
const heapLines = 12

// Result of one microbenchmark run.
type Result struct {
	Lock      string
	Threads   int
	Nodes     int
	Ops       int64
	Time      sim.Time
	OpsPerUs  float64
	Delegated int64
	SIFences  int64
}

func mkResult(lock string, threads, nodes int, ops int64, t sim.Time) Result {
	r := Result{Lock: lock, Threads: threads, Nodes: nodes, Ops: ops, Time: t}
	if t > 0 {
		r.OpsPerUs = float64(ops) / (float64(t) / 1000)
	}
	return r
}

// localWork performs w work units for thread state arr and charges p. Each
// index is what rng.Intn(64) returns, bit for bit and one source draw each,
// without the four calls Intn makes on the way to that draw.
func localWork(p *sim.Proc, rng *rand.Rand, arr []int64, w int) {
	for u := 0; u < w; u++ {
		arr[int(rng.Int63()>>32)&63]++
		arr[int(rng.Int63()>>32)&63]--
	}
	p.Advance(sim.Time(w) * workUnitCost)
}

// NativeLockKind names the Figure 11 contenders.
type NativeLockKind string

// The native lock algorithms under test (the paper's Figure 11 contenders).
const (
	NativePthread NativeLockKind = "pthreads"
	NativeCohort  NativeLockKind = "cohort"
	NativeQD      NativeLockKind = "qd"
)

// RunNative runs the single-machine benchmark (Figure 11) with the given
// lock algorithm and thread count.
func RunNative(kind NativeLockKind, threads int, p Params) Result {
	m := wload.NewLocalMachine(wload.Net())
	heap := pairingheap.NewLocalHeap(p.Preload + threads*p.OpsPerThread + 16)
	for i := 0; i < p.Preload; i++ {
		heap.Insert(int64(i * 37 % p.Preload))
	}
	data := locks.NewMigratoryData(heapLines, heapOpCost)

	var qd *locks.QDLock
	var plain locks.NativeLock
	switch kind {
	case NativePthread:
		plain = locks.NewPthreadMutex(m.Fab)
	case NativeCohort:
		plain = locks.NewCohortLock(m.Fab, m.Topo.Sockets)
	case NativeQD:
		qd = locks.NewQDLock(m.Fab)
	default:
		panic("pqbench: unknown native lock " + string(kind))
	}

	t := m.Run(threads, func(lc *wload.LocalCtx) {
		rng := rand.New(rand.NewSource(int64(lc.ID)*2654435761 + 12345))
		arr := make([]int64, 64)
		for k := 0; k < p.OpsPerThread; k++ {
			localWork(lc.P, rng, arr, p.WorkUnits)
			ins := rng.Intn(2) == 0
			key := rng.Int63n(1 << 20)
			if qd != nil {
				if ins {
					qd.Delegate(lc.P, func(h *sim.Proc) {
						data.Touch(h, m.Fab)
						heap.Insert(key)
					})
				} else {
					qd.DelegateWait(lc.P, func(h *sim.Proc) {
						data.Touch(h, m.Fab)
						heap.ExtractMin()
					})
				}
			} else {
				plain.Lock(lc.P)
				data.Touch(lc.P, m.Fab)
				if ins {
					heap.Insert(key)
				} else {
					heap.ExtractMin()
				}
				plain.Unlock(lc.P)
			}
			runtime.Gosched()
		}
	})
	ops := int64(threads * p.OpsPerThread)
	r := mkResult(string(kind), threads, 1, ops, t)
	r.Delegated = m.Fab.NodeStats(0).DelegatedSections.Load()
	return r
}

// DSMLockKind names the Figure 12 contenders.
type DSMLockKind string

// The DSM lock algorithms under test.
const (
	DSMHQDL   DSMLockKind = "argo-hqdl"
	DSMCohort DSMLockKind = "cohort"
	DSMMutex  DSMLockKind = "mutex"
)

// RunDSM runs the distributed benchmark (Figure 12): the heap lives in
// Argo's global memory, threads across all nodes contend on one lock.
func RunDSM(kind DSMLockKind, cfg core.Config, tpn int, p Params) Result {
	c := wload.MustCluster(cfg)
	defer c.Close()
	heap := pairingheap.NewDSMHeap(c, p.Preload+cfg.Nodes*tpn*p.OpsPerThread+16)

	var hqdl *locks.HQDLock
	var plain locks.DSMLock
	switch kind {
	case DSMHQDL:
		hqdl = locks.NewHQDLock(c)
	case DSMCohort:
		plain = locks.NewDSMCohortLock(c)
	case DSMMutex:
		plain = locks.NewDSMMutex(c, 0)
	default:
		panic("pqbench: unknown DSM lock " + string(kind))
	}

	t := c.Run(tpn, func(th *core.Thread) {
		rng := th.Rand() // seeded here, not in the race for the lock behind InitDone
		// Preload from thread 0 before everyone starts.
		if th.Rank == 0 {
			for i := 0; i < p.Preload; i++ {
				heap.Insert(th, int64(i*37%p.Preload))
			}
		}
		th.InitDone()
		arr := make([]int64, 64)
		for k := 0; k < p.OpsPerThread; k++ {
			localWork(th.P, rng, arr, p.WorkUnits)
			ins := rng.Intn(2) == 0
			key := rng.Int63n(1 << 20)
			if hqdl != nil {
				if ins {
					hqdl.Delegate(th, func(h *core.Thread) { heap.Insert(h, key) })
				} else {
					hqdl.DelegateWait(th, func(h *core.Thread) { heap.ExtractMin(h) })
				}
			} else {
				plain.Lock(th)
				if ins {
					heap.Insert(th, key)
				} else {
					heap.ExtractMin(th)
				}
				plain.Unlock(th)
			}
			runtime.Gosched()
		}
		th.Barrier()
	})
	ops := int64(cfg.Nodes * tpn * p.OpsPerThread)
	s := c.Stats()
	r := mkResult(string(kind), cfg.Nodes*tpn, cfg.Nodes, ops, t)
	r.Delegated = s.DelegatedSections
	r.SIFences = s.SIFences
	return r
}

// RunUPC runs the microbenchmark on the PGAS layer (§2.1): the heap lives
// in a UPC shared array with affinity to rank 0, protected by a upc_lock.
// There are no fences (nothing is cached), but every heap access inside a
// critical section is a fine-grained remote operation for all other ranks —
// the cost the paper identifies as UPC's critical-section penalty.
func RunUPC(nodes, rpn int, p Params) Result {
	w := pgas.NewWorld(wload.NewFabric(nodes), rpn)
	heap := pairingheap.NewPGASHeap(w, p.Preload+w.Size*p.OpsPerThread+16)
	l := w.NewLock(0)
	t := w.Run(func(r *pgas.Rank) {
		if r.ID == 0 {
			heap.Init(r)
			for i := 0; i < p.Preload; i++ {
				heap.Insert(r, int64(i*37%p.Preload))
			}
		}
		r.Barrier()
		rng := rand.New(rand.NewSource(int64(r.ID)*2654435761 + 977))
		arr := make([]int64, 64)
		for k := 0; k < p.OpsPerThread; k++ {
			localWork(r.P, rng, arr, p.WorkUnits)
			l.Lock(r)
			if rng.Intn(2) == 0 {
				heap.Insert(r, rng.Int63n(1<<20))
			} else {
				heap.ExtractMin(r)
			}
			l.Unlock(r)
			runtime.Gosched()
		}
		r.Barrier()
	})
	ops := int64(w.Size * p.OpsPerThread)
	return mkResult("upc", w.Size, nodes, ops, t)
}
