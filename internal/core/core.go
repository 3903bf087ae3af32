// Package core assembles the Argo DSM system: it glues the global address
// space, the Pyxis directory, the per-node Carina coherence agents and the
// simulated fabric into a Cluster, gives simulated threads a typed API onto
// the shared global memory, and synchronizes each launch's threads with
// Vela's hierarchical barrier (barrier.go) over the Cygnus member barrier
// (member.go), which survives crashes and partitions.
//
// The public entry point of the repository (package argo at the module root)
// re-exports the types defined here.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"argo/internal/cache"
	"argo/internal/coherence"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/fault"
	"argo/internal/health"
	"argo/internal/mem"
	"argo/internal/probe"
	"argo/internal/sim"
	"argo/internal/stats"
)

// Config describes a simulated Argo cluster.
type Config struct {
	// Machine room.
	Nodes          int // machines (each contributes home memory); max 128
	SocketsPerNode int // NUMA domains per machine
	CoresPerSocket int

	// Global memory.
	MemoryBytes int64      // size of the shared global address space
	PageSize    int        // DSM page size (default 4096)
	Policy      mem.Policy // home assignment policy

	// Page cache geometry (per node).
	CacheLines   int // number of direct-mapped lines
	PagesPerLine int // pages fetched per line (prefetch degree)

	// Write buffer.
	WriteBufferPages int

	// Protocol.
	Mode           coherence.Mode
	SWDiffSuppress bool
	DecayEpochs    int // if >0, reset classification every that many barrier episodes
	// Paranoia makes every barrier episode verify the protocol's
	// structural invariants on every node (tests and debugging; the sweep
	// is host-time only).
	Paranoia bool
	// NoAccessTLB disables the Lynx per-thread access-translation cache:
	// every scalar access takes the line-locked slow path. Results are
	// bit-identical either way (the fast path reproduces the locked path's
	// accounting exactly); the switch exists for A/B regression tests and
	// for diagnosing suspected fast-path issues.
	NoAccessTLB bool

	// Interconnect cost model.
	Net fabric.Params

	// Faults, when non-nil, is the Corvus fault-injection plan applied to
	// the cluster's fabric (see package fault). Nil means fault-free.
	Faults *fault.Plan

	// Observers are the sinks of the cluster's probe spine: either of the
	// two stock sinks — a trace.Tracer (the log of every event, which the
	// timelines and Pictor's critical path read) and a metrics.Suite
	// (Argoscope histograms, counters, hot spots) — or anything else with an
	// Observe method. NewCluster hands the spine to
	// every layer before it returns, so locks, flags and barriers built later
	// report too. Clusters may share an observer. With none, every emission
	// site costs one nil check.
	Observers []probe.Sink
}

// DefaultConfig returns the configuration used as the evaluation baseline:
// the paper's node type (two 2×4-core Opterons = 4 NUMA domains of 4 cores),
// 4 KB pages interleaved across nodes, a 4-page prefetch line, an 8192-page
// write buffer, and the full P/S3 classification.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:            nodes,
		SocketsPerNode:   4,
		CoresPerSocket:   4,
		MemoryBytes:      64 << 20,
		PageSize:         4096,
		Policy:           mem.Interleaved,
		CacheLines:       4096,
		PagesPerLine:     4,
		WriteBufferPages: 8192,
		Mode:             coherence.ModePS3,
		Net:              fabric.DefaultParams(),
	}
}

// Validate normalizes zero fields to defaults and checks limits. Negative
// values are never defaults in disguise — they are rejected, so a caller
// that computes a geometry wrong hears about it instead of simulating a
// machine that cannot exist.
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("core: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Nodes > directory.MaxNodes {
		return fmt.Errorf("core: at most %d nodes, got %d", directory.MaxNodes, c.Nodes)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"SocketsPerNode", int64(c.SocketsPerNode)},
		{"CoresPerSocket", int64(c.CoresPerSocket)},
		{"MemoryBytes", c.MemoryBytes},
		{"PageSize", int64(c.PageSize)},
		{"CacheLines", int64(c.CacheLines)},
		{"PagesPerLine", int64(c.PagesPerLine)},
		{"WriteBufferPages", int64(c.WriteBufferPages)},
		{"DecayEpochs", int64(c.DecayEpochs)},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: %s must not be negative, got %d", f.name, f.v)
		}
	}
	d := DefaultConfig(c.Nodes)
	c.SocketsPerNode = cmp.Or(c.SocketsPerNode, d.SocketsPerNode)
	c.CoresPerSocket = cmp.Or(c.CoresPerSocket, d.CoresPerSocket)
	c.PageSize = cmp.Or(c.PageSize, d.PageSize)
	c.MemoryBytes = cmp.Or(c.MemoryBytes, d.MemoryBytes)
	c.CacheLines = cmp.Or(c.CacheLines, d.CacheLines)
	c.PagesPerLine = cmp.Or(c.PagesPerLine, d.PagesPerLine)
	c.WriteBufferPages = cmp.Or(c.WriteBufferPages, d.WriteBufferPages)
	c.Net = cmp.Or(c.Net, d.Net)
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		// One-way cut endpoints are node ids; the plan cannot check them
		// against the cluster size, so the config does. A zero partition
		// rate means the cut can never fire, so stale endpoints are fine.
		if c.Faults.PartitionOneWay && c.Faults.Partition > 0 {
			if c.Faults.PartitionFrom >= c.Nodes || c.Faults.PartitionTo >= c.Nodes {
				return fmt.Errorf("core: one-way cut %d>%d names a node outside the %d-node cluster",
					c.Faults.PartitionFrom, c.Faults.PartitionTo, c.Nodes)
			}
		}
	}
	return nil
}

// Cluster is a simulated Argo DSM installation.
type Cluster struct {
	Cfg   Config
	Topo  sim.Topology
	Fab   *fabric.Fabric
	Space *mem.Space
	Dir   *directory.Directory
	Nodes []*coherence.Node

	// Obs fans every layer's events out to Cfg.Observers; nil when there
	// are none. Locks, flags and barriers built over this cluster emit into
	// it too.
	Obs *probe.Spine

	// Health is the Cygnus failure detector and membership view. Always
	// constructed; Health.Armed() is false unless the fault plan can crash
	// or cut, by a rate or a scripted entry.
	Health *health.Detector

	runMu    sync.Mutex
	closed   atomic.Bool // set by Close, under runMu
	hits     atomic.Int64
	syncKeys atomic.Uint64
	// spanKeys hands out barrier instances, edge keys for observers only. It
	// is deliberately a separate counter from syncKeys: sharing the
	// fault-identity counter would shift every lock's Corvus identity
	// whenever a barrier is built, breaking seeded fault replay.
	spanKeys atomic.Uint64
}

// NextSyncKey hands out a cluster-unique fault-identity key for a
// synchronization word (lock ticket, flag). The counter is per cluster so
// the same workload builds the same keys run after run — a process-global
// counter would shift identities between repeated runs and break
// deterministic fault replay.
func (c *Cluster) NextSyncKey() uint64 { return c.syncKeys.Add(1) }

// NewCluster builds a cluster from cfg, observers and fault plan included:
// everything that describes a cluster travels in the Config.
func NewCluster(cfg Config) (*Cluster, error) {
	if ConfigHook != nil {
		ConfigHook(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := sim.Topology{Nodes: cfg.Nodes, Sockets: cfg.SocketsPerNode, CoresPerSocket: cfg.CoresPerSocket}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	fab, err := fabric.New(topo, cfg.Net)
	if err != nil {
		return nil, fmt.Errorf("core: building fabric: %w", err)
	}
	var plan fault.Plan
	if cfg.Faults != nil {
		plan = *cfg.Faults
	}
	fab.FI = fault.NewInjector(plan)
	space := mem.NewSpace(cfg.Nodes, cfg.MemoryBytes, cfg.PageSize, cfg.Policy)
	dir := directory.New(fab, space.NPages, space.HomeOf)
	det := health.New(cfg.Nodes, plan)
	cl := &Cluster{Cfg: cfg, Topo: topo, Fab: fab, Space: space, Dir: dir, Health: det}
	opt := coherence.Options{Mode: cfg.Mode, SWDiffSuppress: cfg.SWDiffSuppress}
	for n := 0; n < cfg.Nodes; n++ {
		pc := cache.New(n, cfg.PageSize, cfg.CacheLines, cfg.PagesPerLine, cfg.WriteBufferPages)
		cl.Nodes = append(cl.Nodes, coherence.NewNode(n, fab, space, dir, pc, opt))
	}
	cl.wireObservers()
	return cl, nil
}

// wireObservers builds the spine over c.Cfg.Observers and hands it to every
// layer of the cluster.
func (c *Cluster) wireObservers() {
	c.Obs = probe.NewSpine(c.Cfg.Observers)
	c.Fab.Obs, c.Health.Obs = c.Obs, c.Obs
	for _, n := range c.Nodes {
		n.Obs = c.Obs
	}
}

// ConfigHook, when non-nil, is invoked with every Config before validation
// in NewCluster: the one seam through which tooling (argo-bench, argo-stress)
// and A/B tests reach the clusters that harness experiments and workload
// parameter structs build internally — to set observers, a default fault
// plan or a reference-path switch. Not for concurrent mutation.
var ConfigHook func(*Config)

// MustNewCluster is NewCluster that panics on error (tests, examples).
func MustNewCluster(cfg Config) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// errClosed is what a closed cluster's Run, Init*, Dump* and Alloc* panic
// with.
var errClosed = errors.New("core: cluster closed")

// Close hands the cluster's skeleton — the home page table, the Pyxis maps and
// every node's cache lines — to the chunk pools the next cluster's skeleton
// comes from, and with it the page frames it holds — every home page, and
// every cache slot's copy and twin on every node — to the process's free
// frames (mem.GetFrame), where the next cluster built takes them instead of
// allocating its simulated memory anew. It walks only what the cluster
// touched. Call it once the cluster's answers
// have been read: afterwards Run, Init*, Dump* and Alloc* panic with a
// "cluster closed" error, and a slice Space.HomeBytes returned must not be
// used, while Stats, Hits and Health stay readable. A second Close does
// nothing; a Close while a Run is in progress panics.
func (c *Cluster) Close() {
	if !c.runMu.TryLock() {
		panic("core: Close during Run")
	}
	defer c.runMu.Unlock()
	if c.closed.Swap(true) {
		return
	}
	c.Space.Free()
	c.Dir.Free()
	for _, n := range c.Nodes {
		n.Cache.Free()
	}
}

// mustBeOpen panics if the cluster has been closed.
func (c *Cluster) mustBeOpen() {
	if c.closed.Load() {
		panic(errClosed)
	}
}

// Alloc reserves size bytes of global memory (8-byte aligned).
func (c *Cluster) Alloc(size int64) mem.Addr {
	c.mustBeOpen()
	return c.Space.Alloc(size, 8)
}

// AllocPages reserves size bytes starting on a page boundary.
func (c *Cluster) AllocPages(size int64) mem.Addr {
	c.mustBeOpen()
	return c.Space.AllocPageAligned(size)
}

// ResetVirtualState clears virtual-time residue (NIC occupancy, fetch
// gates) and all cached pages + classification, making the next Run start
// cold. Home memory contents are preserved.
func (c *Cluster) ResetVirtualState() {
	c.Fab.ResetNICs()
	c.Fab.SetCut(fault.Cut{})
	for _, n := range c.Nodes {
		n.ResetForPhase()
		n.Cache.FetchGate.Reset()
	}
	c.Dir.Reset()
	c.Dir.ClearDead()
	c.Health.Reset()
}

// Stats aggregates all node counters plus the thread-local hit counts of
// completed runs.
func (c *Cluster) Stats() stats.Snapshot { return c.Fab.TotalStats() }

// Hits returns the aggregated page-cache hit count of completed runs.
func (c *Cluster) Hits() int64 { return c.hits.Load() }

// CheckInvariants verifies the protocol's structural invariants on every
// node (see coherence.Node.CheckInvariants). Intended after a quiesce.
func (c *Cluster) CheckInvariants() error {
	for _, n := range c.Nodes {
		if err := n.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// Thread is one simulated application thread running on a cluster node.
// A Thread must only be used from the goroutine Run gave it to.
type Thread struct {
	Rank  int // global rank, node*threadsPerNode+local
	Node  int
	Local int // index within the node
	NT    int // total threads in this launch
	TPN   int // threads per node in this launch

	P   *sim.Proc
	C   *Cluster
	Coh *coherence.Node
	bar *hierBarrier // the launch's barrier, shared by its threads

	// SyncEpoch counts the barrier episodes this thread has entered (the
	// Vela barrier bumps it at episode entry). Under the SPMD model every
	// thread executes the same barrier sequence, so the counter names the
	// episode a Cygnus crash verdict applies to.
	SyncEpoch int64

	// tlb is the Lynx per-thread access-translation cache (nil when
	// Config.NoAccessTLB): scalar accesses that hit in it never reach Coh.
	// Like the Thread itself it is single-goroutine. Run releases it when
	// the launch ends (nil from then on), for the next launch's threads.
	tlb *cache.TLB

	// rng is the thread's random source, built by its first Rand call from
	// the launch's seed base.
	rng  *rand.Rand
	seed int64
}

// Rand returns the thread's private random source, seeded with
// ThreadSeed(launch seed base, rank). It is built on first use: seeding a
// source costs more than the rest of launching a thread, and few programs
// draw from it.
func (t *Thread) Rand() *rand.Rand {
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(ThreadSeed(t.seed, t.Rank)))
	}
	return t.rng
}

// ThreadSeed is the seed of rank's Rand in a launch with seed base base (1
// for Run, RunSeeded's argument otherwise). An input generated outside the
// run calls it to draw what that thread's Rand would have drawn.
func ThreadSeed(base int64, rank int) int64 { return base + int64(rank)*1_000_003 }

// Run launches threadsPerNode simulated threads on every node, runs body on
// each (their Barrier is one hierarchical barrier built for the launch), and
// returns the makespan (the maximum final virtual clock). Each Run
// starts from cold caches and zeroed clocks; home memory persists.
func (c *Cluster) Run(threadsPerNode int, body func(t *Thread)) sim.Time {
	return c.RunSeeded(threadsPerNode, 1, body)
}

// RunSeeded is Run with an explicit RNG seed base for the threads.
func (c *Cluster) RunSeeded(threadsPerNode int, seed int64, body func(t *Thread)) sim.Time {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	c.mustBeOpen()
	c.ResetVirtualState()

	bar := newHierBarrier(c, threadsPerNode)
	nt := c.Cfg.Nodes * threadsPerNode
	threads := make([]*Thread, nt)
	procs := make([]*sim.Proc, nt)
	for node := 0; node < c.Cfg.Nodes; node++ {
		for l := 0; l < threadsPerNode; l++ {
			r := node*threadsPerNode + l
			p := c.Topo.NewProc(node, l)
			threads[r] = &Thread{
				Rank: r, Node: node, Local: l, NT: nt, TPN: threadsPerNode,
				P: p, C: c, Coh: c.Nodes[node], bar: bar, seed: seed,
			}
			if !c.Cfg.NoAccessTLB {
				threads[r].tlb = c.Nodes[node].NewTLB()
			}
			procs[r] = p
		}
	}
	g := sim.NewGroup(procs)
	makespan := g.Run(func(i int, p *sim.Proc) {
		// A crash-stopped thread unwinds with a CrashSignal panic; the
		// run absorbs it here — the node is dead, the launch is not.
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(health.CrashSignal); ok {
					return
				}
				panic(r)
			}
		}()
		body(threads[i])
	})
	for _, th := range threads {
		th.tlb.Release()
		th.tlb = nil
	}
	for _, p := range procs {
		c.hits.Add(p.Hits)
		c.Nodes[p.Node].PublishHits(p) // what the thread counted since its last fence
	}
	if c.Obs != nil {
		c.Obs.Emit(probe.Event{Kind: probe.RunEnd, Start: makespan, T: makespan})
	}
	return makespan
}

// ---------------------------------------------------------------------------
// Thread memory API
// ---------------------------------------------------------------------------

// Compute advances the thread's virtual clock by d nanoseconds of local
// computation.
func (t *Thread) Compute(d sim.Time) { t.P.Advance(d) }

// ReadBytes copies len(dst) bytes from global address a.
func (t *Thread) ReadBytes(a mem.Addr, dst []byte) { t.Coh.ReadAt(t.P, a, dst) }

// WriteBytes writes src to global address a.
func (t *Thread) WriteBytes(a mem.Addr, src []byte) { t.Coh.WriteAt(t.P, a, src) }

// ReadU64 reads a little-endian 64-bit word at a. A Lynx hit (a valid TLB
// entry for the page) is served by the thread's TLB alone, straight from the
// cached page; only a miss enters the coherence layer.
func (t *Thread) ReadU64(a mem.Addr) uint64 {
	if v, ok := t.tlb.Load(t.P, a); ok {
		return v
	}
	return t.Coh.ReadWord(t.P, t.tlb, a)
}

// WriteU64 writes a little-endian 64-bit word at a (by the TLB alone on a
// Lynx dirty-page hit, see ReadU64).
func (t *Thread) WriteU64(a mem.Addr, v uint64) {
	if !t.tlb.Store(t.P, a, v) {
		t.Coh.WriteWord(t.P, t.tlb, a, v)
	}
}

// ReadI64 reads an int64 at a.
func (t *Thread) ReadI64(a mem.Addr) int64 { return int64(t.ReadU64(a)) }

// WriteI64 writes an int64 at a.
func (t *Thread) WriteI64(a mem.Addr, v int64) { t.WriteU64(a, uint64(v)) }

// ReadF64 reads a float64 at a.
func (t *Thread) ReadF64(a mem.Addr) float64 { return math.Float64frombits(t.ReadU64(a)) }

// WriteF64 writes a float64 at a.
func (t *Thread) WriteF64(a mem.Addr, v float64) { t.WriteU64(a, math.Float64bits(v)) }

// AcquireFence is Carina's SI fence (acquire semantics).
func (t *Thread) AcquireFence() { t.Coh.SIFence(t.P) }

// ReleaseFence is Carina's SD fence (release semantics).
func (t *Thread) ReleaseFence() { t.Coh.SDFence(t.P) }

// Barrier waits on the launch's hierarchical barrier (SD, global
// rendezvous, SI).
func (t *Thread) Barrier() { t.bar.wait(t, false) }

// CrashSafePoint offers the pending crash verdict (if any) a chance to fire
// at a non-barrier safe point: sync layers call it at their own safe points —
// lock acquire/release, flag wait/signal — so a verdict can fire mid-interval
// instead of waiting for the barrier backstop. A no-op unless the fault plan
// arms the point; when the verdict fires, the call panics with
// health.CrashSignal and never returns.
func (t *Thread) CrashSafePoint(pt fault.SafePoint) { t.bar.safePoint(t, pt) }

// InitDone marks the end of the program's initialization phase: a collective
// barrier that flushes and drops all cached pages and clears the Pyxis
// full-maps, so initialization accesses do not pollute the classification.
// Every thread of the launch must call it (it is a barrier).
func (t *Thread) InitDone() { t.bar.wait(t, true) }

// ---------------------------------------------------------------------------
// Zero-cost initialization (outside the measured parallel section)
// ---------------------------------------------------------------------------

// InitBytes writes src directly into home memory starting at a, allocating
// the pages it touches (mem: home memory materialises on first write).
func (c *Cluster) InitBytes(a mem.Addr, src []byte) {
	c.mustBeOpen()
	ps := c.Space.PageSize
	for len(src) > 0 {
		page := c.Space.PageOf(a)
		off := int(a) % ps
		seg := ps - off
		if seg > len(src) {
			seg = len(src)
		}
		pg := c.Space.HomeBytes(page)
		copy(pg[off:off+seg], src[:seg])
		src = src[seg:]
		a += mem.Addr(seg)
	}
}

// viewBytes hands fn the n bytes of home memory from a, page segment by page
// segment in address order (mem.Space.ViewPageAt: in place, under each page's
// read lock, zeros for a page nobody has written). It is the one walk over
// home pages that reads: ViewHome and the dumps are built on it.
func (c *Cluster) viewBytes(a mem.Addr, n int, fn func(b []byte)) {
	c.mustBeOpen()
	ps := c.Space.PageSize
	for n > 0 {
		off := int(a) % ps
		seg := min(ps-off, n)
		c.Space.ViewPageAt(c.Space.PageOf(a), off, seg, fn)
		n -= seg
		a += mem.Addr(seg)
	}
}
