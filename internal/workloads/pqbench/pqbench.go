// Package pqbench is the paper's lock-synchronization microbenchmark
// (§5.3, Figures 11 and 12): N threads repeatedly perform thread-local work
// followed by a 50/50 mix of insert and extract_min on a shared pairing-heap
// priority queue protected by the lock under test. insert needs no result,
// so delegating threads detach; extract_min waits for its value. Each
// thread's operations are an input drawn before the run, and its local work
// is charged in virtual time, not run.
//
// The native family (Figure 11) runs on one machine with the heap's cache
// lines modeled as migratory data; the DSM family (Figure 12) runs the heap
// in Argo's global memory, where the migration cost emerges from the page
// cache and the fences of the lock being tested.
package pqbench

import (
	"math/rand"

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
// a thread-local 64-integer array). The work is charged, not run: nothing
// reads the array, and the index draws it took are skipped by the streams.
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

// An op is one operation of a thread's stream: the key of an insert (keys
// are below 1<<20), or extractOp.
type op int32

const extractOp op = -1

// streamKey names the streams of a launch: its threads, the local work units
// before each operation, and the operations per thread.
type streamKey struct{ threads, workUnits, ops int }

func keyOf(threads int, p Params) streamKey {
	return streamKey{threads, p.WorkUnits, p.OpsPerThread}
}

// covers reports whether held's streams serve k: a thread's source and draw
// order depend on neither count, so a launch with no more threads and no more
// operations per thread, at the same work, reads a prefix of each stream. The
// ledger's pq_hqdl and pq_mutex rows (4 000 and 400 operations) share one
// build that way.
func covers(held, k streamKey) bool {
	return held.workUnits == k.workUnits && held.threads >= k.threads && held.ops >= k.ops
}

// streams holds every thread's operations of a launch, thread-major,
// perThread each.
type streams struct {
	ops       []op
	perThread int
}

// of is thread id's first n operations.
func (s streams) of(id, n int) []op { return s.ops[id*s.perThread:][:n] }

// A family is one runner family's operation streams: how its threads are
// seeded and draw, and the streams of the largest launch it last asked for
// (wload.Memo, DESIGN §20), shared read-only by every lock, sweep point and
// repetition that launch covers.
type family struct {
	seed        func(id int) int64
	keyOnInsert bool // RunUPC draws a key only for an insert
	memo        wload.Memo[streamKey, streams]
}

// The runner families. RunDSM's threads drew from Thread.Rand under
// Cluster.Run, whose seed base is 1.
var (
	nativeStreams = &family{seed: func(id int) int64 { return int64(id)*2654435761 + 12345 }}
	dsmStreams    = &family{seed: func(id int) int64 { return core.ThreadSeed(1, id) }}
	upcStreams    = &family{seed: func(id int) int64 { return int64(id)*2654435761 + 977 }, keyOnInsert: true}
)

// get returns streams that cover a launch of threads threads with p.
func (f *family) get(threads int, p Params) streams {
	return f.memo.GetCovering(keyOf(threads, p), covers, f.draw)
}

// draw draws every thread's operations from a source seeded with seed(id), in
// the order the threads once drew them inside the run. Per operation: two
// index draws per local work unit (skipped: the work is only charged), the
// insert/extract coin, then the key — of every operation, or, with
// keyOnInsert, of an insert only.
func (f *family) draw(k streamKey) streams {
	s := streams{ops: make([]op, k.threads*k.ops), perThread: k.ops}
	for id := 0; id < k.threads; id++ {
		rng := rand.New(rand.NewSource(f.seed(id)))
		ops := s.of(id, k.ops)
		for j := range ops {
			for u := 0; u < 2*k.workUnits; u++ {
				rng.Int63()
			}
			ins := rng.Intn(2) == 0
			var key int64
			if ins || !f.keyOnInsert {
				key = rng.Int63n(1 << 20)
			}
			ops[j] = extractOp
			if ins {
				ops[j] = op(key)
			}
		}
	}
	return s
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
	m := wload.NewLocalMachine()
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
		plain = locks.NewCohortLock(m.Fab, m.Fab.Topo.Sockets)
	case NativeQD:
		qd = locks.NewQDLock(m.Fab)
	default:
		panic("pqbench: unknown native lock " + string(kind))
	}

	// The delegated sections, built once: the key travels as the ring's
	// argument word, so delegating allocates nothing per operation.
	insert := func(h *sim.Proc, key int64) {
		data.Touch(h, m.Fab)
		heap.Insert(key)
	}
	extract := func(h *sim.Proc) {
		data.Touch(h, m.Fab)
		heap.ExtractMin()
	}
	stream, work := nativeStreams.get(threads, p), sim.Time(p.WorkUnits)*workUnitCost
	t := m.Run(threads, func(lc *wload.LocalCtx) {
		for _, o := range stream.of(lc.ID, p.OpsPerThread) {
			lc.P.Advance(work)
			if qd != nil {
				if o != extractOp {
					qd.DelegateArg(lc.P, insert, int64(o))
				} else {
					qd.DelegateWait(lc.P, extract)
				}
			} else {
				plain.Lock(lc.P)
				data.Touch(lc.P, m.Fab)
				if o != extractOp {
					heap.Insert(int64(o))
				} else {
					heap.ExtractMin()
				}
				plain.Unlock(lc.P)
			}
			lc.P.Point(sim.OpDone)
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

	// As in RunNative: the sections are built once per run.
	insert := heap.Insert
	extract := func(h *core.Thread) { heap.ExtractMin(h) }
	stream, work := dsmStreams.get(cfg.Nodes*tpn, p), sim.Time(p.WorkUnits)*workUnitCost
	t := c.Run(tpn, func(th *core.Thread) {
		// Preload from thread 0 before everyone starts.
		if th.Rank == 0 {
			for i := 0; i < p.Preload; i++ {
				heap.Insert(th, int64(i*37%p.Preload))
			}
		}
		th.InitDone()
		for _, o := range stream.of(th.Rank, p.OpsPerThread) {
			th.P.Advance(work)
			if hqdl != nil {
				if o != extractOp {
					hqdl.DelegateArg(th, insert, int64(o))
				} else {
					hqdl.DelegateWait(th, extract)
				}
			} else {
				plain.Lock(th)
				if o != extractOp {
					heap.Insert(th, int64(o))
				} else {
					heap.ExtractMin(th)
				}
				plain.Unlock(th)
			}
			th.P.Point(sim.OpDone)
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
	stream, work := upcStreams.get(w.Size, p), sim.Time(p.WorkUnits)*workUnitCost
	t := w.Run(func(r *pgas.Rank) {
		if r.ID == 0 {
			heap.Init(r)
			for i := 0; i < p.Preload; i++ {
				heap.Insert(r, int64(i*37%p.Preload))
			}
		}
		r.Barrier()
		for _, o := range stream.of(r.ID, p.OpsPerThread) {
			r.P.Advance(work)
			l.Lock(r)
			if o != extractOp {
				heap.Insert(r, int64(o))
			} else {
				heap.ExtractMin(r)
			}
			l.Unlock(r)
			r.P.Point(sim.OpDone)
		}
		r.Barrier()
	})
	ops := int64(w.Size * p.OpsPerThread)
	return mkResult("upc", w.Size, nodes, ops, t)
}
