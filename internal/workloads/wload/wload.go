// Package wload holds the shared plumbing of the benchmark workloads: the
// single-machine ("Pthreads"/"OpenMP") runner used as the paper's intra-node
// baseline, the Result type every variant reports, and small verification
// helpers. Each workload package provides the same computation in up to four
// paradigms — Argo (DSM), Local (one machine), MPI (message passing) and
// UPC (PGAS) — all charged with one compute-cost model so the comparisons
// isolate communication and synchronization behaviour, as in the paper.
package wload

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"argo"
	"argo/internal/core"
	"argo/internal/fabric"
	"argo/internal/sim"
	"argo/internal/stats"
)

// Net returns the evaluation cost model (one source of truth for every
// variant of every workload).
func Net() fabric.Params { return fabric.DefaultParams() }

// NewFabric builds a fabric for an MPI/UPC world over the standard node
// type (4 sockets × 4 cores).
func NewFabric(nodes int) *fabric.Fabric {
	topo := sim.Topology{Nodes: nodes, Sockets: 4, CoresPerSocket: 4}
	return fabric.MustNew(topo, Net())
}

// ArgoConfig is the workload-default cluster configuration: the evaluation
// baseline with memBytes of global memory.
func ArgoConfig(nodes int, memBytes int64) core.Config {
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = memBytes
	cfg.Net = Net()
	return cfg
}

// MustCluster builds the cluster cfg describes through the public
// constructor (default barrier included) and panics on an invalid config.
func MustCluster(cfg core.Config) *core.Cluster { return argo.MustNewCluster(cfg) }

// Result is the outcome of one workload run.
type Result struct {
	System  string   // "argo", "local", "mpi", "upc", "serial"
	Nodes   int      // machines used
	Threads int      // total threads/ranks
	Time    sim.Time // virtual makespan of the measured section
	Check   float64  // workload-defined checksum for verification
	Stats   stats.Snapshot
}

// Speedup returns base.Time / r.Time.
func (r Result) Speedup(base Result) float64 {
	if r.Time == 0 {
		return math.Inf(1)
	}
	return float64(base.Time) / float64(r.Time)
}

func (r Result) String() string {
	return fmt.Sprintf("%-6s nodes=%-3d threads=%-4d time=%.3fms check=%.6g",
		r.System, r.Nodes, r.Threads, float64(r.Time)/1e6, r.Check)
}

// LocalMachine is a single shared-memory machine (the paper's node type:
// four NUMA domains of four cores) used for the Pthreads/OpenMP baselines.
type LocalMachine struct {
	Topo sim.Topology
	Fab  *fabric.Fabric
}

// NewLocalMachine builds the baseline machine with the given cost model.
func NewLocalMachine(p fabric.Params) *LocalMachine {
	topo := sim.Topology{Nodes: 1, Sockets: 4, CoresPerSocket: 4}
	return &LocalMachine{Topo: topo, Fab: fabric.MustNew(topo, p)}
}

// LocalCtx is the per-thread context of a local (non-DSM) run.
type LocalCtx struct {
	ID      int
	Threads int
	P       *sim.Proc
	bar     *sim.Barrier
	barCost sim.Time
}

// Barrier is a pthread_barrier_wait: all threads rendezvous with a
// log-depth cost on the machine's interconnect.
func (lc *LocalCtx) Barrier() { lc.bar.Wait(lc.P, lc.barCost) }

// Compute advances the thread's clock.
func (lc *LocalCtx) Compute(d sim.Time) { lc.P.Advance(d) }

// Run executes body on threads simulated threads of the machine and returns
// the makespan.
func (m *LocalMachine) Run(threads int, body func(lc *LocalCtx)) sim.Time {
	bar := sim.NewBarrier(threads)
	barCost := sim.Time(100)
	if threads > 1 {
		barCost += m.Fab.P.SocketLatency * sim.Time(bits.Len(uint(threads-1)))
	}
	procs := make([]*sim.Proc, threads)
	ctxs := make([]*LocalCtx, threads)
	for i := 0; i < threads; i++ {
		procs[i] = m.Topo.NewProc(0, i)
		ctxs[i] = &LocalCtx{ID: i, Threads: threads, P: procs[i], bar: bar, barCost: barCost}
	}
	g := sim.NewGroup(procs)
	return g.Run(func(i int, p *sim.Proc) { body(ctxs[i]) })
}

// Memo holds the one value last built for a key. The workload packages keep
// their generated inputs in one each, so that an input is built once per
// parameter set and shared, read-only, by every runner family, sweep point and
// repetition that asks for the same parameters — a runner call is then the
// simulated run and nothing else (DESIGN §20). It holds a single entry, which
// bounds a generator's memory at one input: a new key replaces the old value.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	valid bool
	key   K
	val   V
}

// Get returns build(k), calling build only when k is not the key of the
// previous call. Concurrent callers of one key wait for the one build, so
// build must not call Get on the same Memo. Every caller is handed the same
// value and must not write to it.
func (m *Memo[K, V]) Get(k K, build func(K) V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid || m.key != k {
		m.val, m.key, m.valid = build(k), k, true
	}
	return m.val
}

// BlockRange splits n items over parts workers and returns worker id's
// [lo,hi) contiguous share.
func BlockRange(n, parts, id int) (lo, hi int) {
	per := n / parts
	rem := n % parts
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

// MaxAbsDiff returns the largest absolute element difference of two equal-
// length slices. A NaN facing a number is infinitely far from it: NaN compares
// false with everything, so it would otherwise never raise the maximum and a
// result full of NaNs would be "0 away" from its reference.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		switch d := math.Abs(a[i] - b[i]); {
		case d > m:
			m = d
		case math.IsNaN(a[i]) != math.IsNaN(b[i]):
			return math.Inf(1)
		}
	}
	return m
}

// Checksum folds a float64 slice into a stable scalar for cross-variant
// comparison.
func Checksum(xs []float64) float64 {
	var a checksum
	a.add(xs)
	return a.sum
}

// ChecksumOf is Checksum of s's home-memory truth in c, read in place
// (core.ViewHome) instead of dumped: the same bits, without the copy. Call it
// where DumpF64 could be called: after Run, before Close.
func ChecksumOf(c *core.Cluster, s core.F64Slice) float64 {
	var a checksum
	core.ViewHome(c, s, a.add)
	return a.sum
}

// checksum is Checksum's accumulator: the sum so far and the index of the
// next element, so that a slice folded segment by segment sums the same terms
// in the same order as the slice folded whole.
type checksum struct {
	sum float64
	i   int
}

func (a *checksum) add(xs []float64) {
	sum, i := a.sum, a.i
	for _, v := range xs {
		sum += v * float64(i%97+1)
		i++
	}
	a.sum, a.i = sum, i
}

// Digest folds xs into an order-sensitive FNV-1a, started from basis, over
// the little-endian bytes of its 64-bit words — on the little-endian hosts the
// simulator runs on (package cache refuses to start otherwise), the bytes the
// slice already occupies. The basis is the caller's because the committed
// digests were not all started from the same one (see lu.digestBasis). FNV-1a
// carries nothing but the hash, so Digest is its own accumulator:
// Digest(Digest(basis, a), b) is the digest of a followed by b.
func Digest[T core.Element](basis uint64, xs []T) uint64 {
	h := basis
	for _, b := range unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*8) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// DigestOf is Digest of s's home-memory truth in c, read in place
// (core.ViewHome) instead of dumped: the same bits, without the copy. Call it
// where DumpF64/DumpI64 could be called: after Run, before Close.
func DigestOf[T core.Element](basis uint64, c *core.Cluster, s core.Slice[T]) uint64 {
	h := basis
	core.ViewHome(c, s, func(seg []T) { h = Digest(h, seg) })
	return h
}
