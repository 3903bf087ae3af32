package main

// metricDef names one ledger metric. Clock says what the number is made of:
// "host" (wall clock or CPU of the simulator itself), "virtual" (simulated
// nanoseconds, the paper's clock), "count" (an exact or median count the
// library reports) or "computed" (derived here from counts and unit costs).
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string // "lower" or "higher"
	// Bound is the share of the old median an end-to-end metric may worsen
	// by before -compare calls it a regression; BoundOn overrides it for
	// one workload. Per-layer metrics have no bound.
	Bound   float64
	BoundOn map[string]float64
	Doc     string
}

func (m metricDef) boundFor(workload string) float64 {
	if b, ok := m.BoundOn[workload]; ok {
		return b
	}
	return m.Bound
}

// maxBound is what BENCHMARK.json carries: the contract has one bound per
// metric, so it takes the widest workload.
func (m metricDef) maxBound() float64 {
	b := m.Bound
	for _, o := range m.BoundOn {
		if o > b {
			b = o
		}
	}
	return b
}

// failShare is the sixth end-to-end number. It is printed and compared like
// the others but is not listed in BENCHMARK.json, whose metrics must never
// be 0: there it is the result line's failed/attempted pair.
const failShare = "fail_share"

// endToEnd lists what a user of the library sees per complete run. The
// bounds come from the measured run-to-run spreads in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Clock: "host", Better: "lower", Bound: 0.25,
		Doc: "median of three set-up passes: input and plan generation, serial or fault-free reference, one checked warm-up run"},
	{Name: "host_run_ms", Unit: "ms", Clock: "host", Better: "lower", Bound: 0.25,
		Doc: "median wall clock of one complete runner call (cluster build, init, launch, dump)"},
	{Name: "host_cpu_ms_per_run", Unit: "ms", Clock: "host", Better: "lower", Bound: 0.25,
		Doc: "median user+system CPU (getrusage) per run; shows a wall-clock gain bought with the second core"},
	{Name: "host_alloc_mb_per_run", Unit: "MB", Clock: "host", Better: "lower", Bound: 0.05,
		Doc: "median MemStats.TotalAlloc growth per run"},
	{Name: "virt_makespan_ms", Unit: "ms", Clock: "virtual", Better: "lower", Bound: 0.03,
		BoundOn: map[string]float64{"drf_scatter": 0.06, "lu_chaos": 0.06, "pq_hqdl": 0.10},
		Doc:     "median simulated makespan the runner returns"},
}

func unitCost(name, unit, clock, doc string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: clock, Better: "lower", Doc: doc}
}

func count(name, doc string) metricDef {
	return metricDef{Name: name, Unit: "count", Clock: "count", Better: "lower", Doc: doc}
}

func computed(name, unit, better, doc string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: "computed", Better: better, Doc: doc}
}

// perLayer lists the per-layer ledger. Layers are this repository's
// modules; the part of a name before the first dot is the module.
var perLayer = []metricDef{
	// Unit costs, from the drivers in layers.go at the 4-node geometry.
	unitCost("cache.read_hit_host_ns", "ns", "host", "Thread.GetF64 on one resident page (TLB hit)"),
	unitCost("cache.read_stride_host_ns", "ns", "host", "Thread.GetF64 striding a resident 64-page set"),
	unitCost("cache.write_hit_host_ns", "ns", "host", "Thread.SetF64 striding 64 dirty pages"),
	unitCost("coherence.read_miss_host_ns", "ns", "host", "scalar read of an uncached page: registration burst plus 4-page line fetch"),
	unitCost("coherence.read_miss_virt_ns", "ns", "virtual", "the same miss on the thread's virtual clock"),
	unitCost("coherence.write_miss_host_ns", "ns", "host", "first store to a clean cached page: twin, writer registration, write-buffer push"),
	unitCost("coherence.write_miss_virt_ns", "ns", "virtual", "the same write miss on the virtual clock"),
	unitCost("coherence.conflict_evict_host_ns", "ns", "host", "store that misses with the 128-page cache and 64-page write buffer full: dirty eviction, refill, write miss, overflow writeback"),
	unitCost("coherence.bulk_read_host_ns_per_kb", "ns/KB", "host", "ReadF64s of 256-byte rows at LU's row stride, resident pages"),
	unitCost("coherence.bulk_write_host_ns_per_kb", "ns/KB", "host", "WriteF64s of 256-byte rows at LU's row stride, dirty pages"),
	unitCost("coherence.si_fence_host_ns_per_page", "ns", "host", "AcquireFence over 1024 cached pages, per page swept"),
	unitCost("coherence.si_fence_virt_ns", "ns", "virtual", "one such SI fence on the virtual clock"),
	unitCost("coherence.sd_fence_host_ns_per_page", "ns", "host", "ReleaseFence downgrading 256 dirty pages, per page"),
	unitCost("coherence.sd_fence_virt_ns", "ns", "virtual", "one such SD fence on the virtual clock"),
	unitCost("mem.apply_diff_sparse_host_ns", "ns", "host", "Space.ApplyDiff of a page with 32-byte runs every 256 bytes"),
	unitCost("mem.apply_diff_dense_host_ns", "ns", "host", "Space.ApplyDiff of a page whose every byte changed"),
	unitCost("mem.read_page_host_ns", "ns", "host", "Space.ReadPage of one 4 KB page"),
	unitCost("directory.register_reader_host_ns", "ns", "host", "Directory.RegisterReader, remote home"),
	unitCost("directory.register_writer_host_ns", "ns", "host", "Directory.RegisterWriter, remote home"),
	unitCost("directory.cached_many_host_ns_per_page", "ns", "host", "Directory.CachedMany over 1024 pages, per page"),
	unitCost("fabric.remote_read_host_ns", "ns", "host", "Fabric.RemoteRead of 4 KB from another node"),
	unitCost("fabric.remote_read_virt_ns", "ns", "virtual", "the same read on the virtual clock"),
	unitCost("fabric.remote_atomic_host_ns", "ns", "host", "Fabric.RemoteAtomic on another node"),
	unitCost("fabric.remote_atomic_virt_ns", "ns", "virtual", "the same atomic on the virtual clock"),
	unitCost("fabric.post_write_burst_host_ns_per_item", "ns", "host", "Fabric.PostWriteBurst of 64 one-KB items over three remote homes, per item"),
	unitCost("fabric.post_write_burst_virt_ns_per_item", "ns", "virtual", "the same burst on the virtual clock, per item"),
	unitCost("fabric.line_fetch_host_ns", "ns", "host", "Fabric.LineFetch of four pages from four homes"),
	unitCost("fabric.line_fetch_virt_ns", "ns", "virtual", "the same fetch on the virtual clock"),
	unitCost("sim.resource_occupy_host_ns", "ns", "host", "Resource.Occupy from one goroutine"),
	unitCost("sim.resource_occupy_contended_host_ns", "ns", "host", "Resource.Occupy with two goroutines on one resource, per call"),
	computed("sim.virt_iqr_pct", "%", "lower", "quartile distance over median of the workload's virtual makespan across its runs: the replay gap"),
	unitCost("vela.barrier_host_us", "us", "host", "one 4x4 barrier episode with empty fences"),
	unitCost("vela.barrier_virt_ns", "ns", "virtual", "the same episode on the virtual clock"),
	unitCost("vela.flag_roundtrip_host_us", "us", "host", "signal/wait ping-pong between two nodes over fresh flags"),
	unitCost("locks.hqdl_delegate_host_ns", "ns", "host", "HQDLock.Delegate of a one-word critical section, 16 threads, per section"),
	unitCost("locks.hqdl_delegate_wait_host_ns", "ns", "host", "HQDLock.DelegateWait of the same section"),
	unitCost("locks.hqdl_cs_virt_ns", "ns", "virtual", "virtual makespan per delegated section"),
	unitCost("locks.mutex_cs_host_ns", "ns", "host", "DSMMutex Lock+Unlock around the same section, 16 threads"),
	unitCost("locks.mutex_cs_virt_ns", "ns", "virtual", "virtual makespan per mutex section"),
	unitCost("locks.cohort_cs_host_ns", "ns", "host", "DSMCohortLock Lock+Unlock around the same section"),
	unitCost("core.new_cluster_host_ms", "ms", "host", "building the 4-node, 64 MB workload cluster"),
	unitCost("core.launch_host_us", "us", "host", "Cluster.Run of 16 threads with an empty body"),
	unitCost("core.init_host_ns_per_kb", "ns/KB", "host", "Cluster.InitF64 of 4 MB"),
	unitCost("core.dump_host_ns_per_kb", "ns/KB", "host", "Cluster.DumpF64 of 4 MB"),
	unitCost("probes.read_hit_attached_host_ns", "ns", "host", "cache.read_hit with metrics, tracer and spans attached"),
	unitCost("probes.barrier_attached_host_us", "us", "host", "vela.barrier with metrics, tracer and spans attached"),

	// Counts per workload, the median over its runs of what the runner returns.
	count("coherence.read_misses", "page-cache read misses"),
	count("coherence.write_misses", "first writes to clean cached pages"),
	count("coherence.writebacks", "pages written back to their home"),
	count("coherence.writeback_bytes", "bytes those writebacks put on the wire"),
	count("coherence.self_invalidations", "pages dropped by SI fences"),
	count("coherence.si_filtered", "pages the classification kept across an SI fence"),
	count("coherence.si_fences", "SI fences"),
	count("coherence.sd_fences", "SD fences"),
	count("cache.cold_fetches", "pages fetched from a home node"),
	count("cache.prefetched_pages", "pages fetched beyond the demand page of their line"),
	count("directory.dir_ops", "remote directory atomics"),
	count("directory.dir_notifies", "remote directory-cache updates"),
	count("fabric.messages", "network transactions"),
	count("fabric.bytes_sent", "bytes put on the wire"),
	count("locks.handovers_local", "lock handovers that stayed on the node"),
	count("locks.handovers_remote", "lock handovers that crossed nodes"),
	{Name: "locks.delegated_sections", Unit: "count", Clock: "count", Better: "higher", Doc: "critical sections run by a helper on behalf of another thread"},
	count("health.deaths", "crash transitions the failure detector recorded"),
	count("health.suspects", "suspect (partition) transitions"),
	count("health.epochs", "final membership epoch"),

	// Ratios, each printed with its base.
	computed("coherence.si_filter_ratio", "ratio", "higher", "si_filtered over si_filtered + self_invalidations"),
	computed("coherence.bytes_per_writeback", "B", "lower", "writeback_bytes over writebacks, of a 4096-byte page"),
	computed("cache.prefetch_per_miss", "ratio", "higher", "prefetched_pages over read_misses"),
	computed("locks.delegation_ratio", "ratio", "higher", "delegated_sections over operations"),
	computed("locks.local_handover_ratio", "ratio", "higher", "handovers_local over all handovers"),
	computed("health.recovery_virt_overhead_pct", "%", "lower", "lu_chaos makespan over the same geometry fault-free, minus one"),

	// Attribution: count x unit host cost as a share of host_cpu_ms_per_run.
	computed("attrib.access_pct", "%", "lower", "scalar and bulk accesses (computed from the inputs) x cache/bulk unit costs"),
	computed("attrib.miss_pct", "%", "lower", "read and write misses x their unit costs"),
	computed("attrib.fence_pct", "%", "lower", "pages swept by SI fences and pages written back x fence unit costs"),
	computed("attrib.sync_pct", "%", "lower", "barrier episodes or critical sections x their unit cost"),
	computed("attrib.core_pct", "%", "lower", "cluster build, launch, init and dump"),
	computed("attrib.unattributed_pct", "%", "lower", "what is left: the kernels' own arithmetic, scheduling, GC"),
	computed("trace.overhead_pct", "%", "lower", "traced run median over untraced run median, minus one"),

	// Diagnostics: printed, but they do not repeat within a tenth.
	{Name: "host_run_ms_tail", Unit: "ms", Clock: "host", Better: "lower", Doc: "host_run_ms at the highest percentile with ten samples beyond it"},
	{Name: "core.heap_inuse_peak_mb", Unit: "MB", Clock: "host", Better: "lower", Doc: "largest MemStats.HeapInuse seen at a run boundary"},
}

// interaction is one row of the table written down before measuring: which
// end-to-end metric a group of layer metrics should move, on which
// workloads, and where the prediction is no change.
type interaction struct {
	Layer []string // per-layer metric names
	Moves []string // end-to-end metric names
	On    []string // workloads that exercise the mechanism
	NotOn []string // workloads that bypass it
}

var interactions = []interaction{
	{Layer: []string{"cache.read_hit_host_ns", "cache.read_stride_host_ns"},
		Moves: []string{"host_run_ms", "host_cpu_ms_per_run"}, On: []string{"cg_gather"}, NotOn: []string{"lu_bulk", "pq_mutex"}},
	{Layer: []string{"cache.write_hit_host_ns", "coherence.write_miss_host_ns", "coherence.write_miss_virt_ns", "coherence.conflict_evict_host_ns", "coherence.write_misses"},
		Moves: []string{"host_run_ms", "virt_makespan_ms"}, On: []string{"drf_scatter", "lu_bulk"}, NotOn: []string{"cg_gather"}},
	{Layer: []string{"coherence.bulk_read_host_ns_per_kb", "coherence.bulk_write_host_ns_per_kb", "mem.apply_diff_sparse_host_ns", "mem.apply_diff_dense_host_ns",
		"coherence.sd_fence_host_ns_per_page", "coherence.sd_fence_virt_ns", "fabric.post_write_burst_host_ns_per_item", "fabric.post_write_burst_virt_ns_per_item",
		"coherence.writebacks", "coherence.writeback_bytes", "coherence.sd_fences", "coherence.bytes_per_writeback", "fabric.messages", "fabric.bytes_sent"},
		Moves: []string{"host_run_ms", "virt_makespan_ms"}, On: []string{"lu_bulk"}, NotOn: []string{"pq_hqdl"}},
	{Layer: []string{"coherence.si_fence_host_ns_per_page", "coherence.si_fence_virt_ns", "directory.cached_many_host_ns_per_page",
		"coherence.si_fences", "coherence.self_invalidations", "coherence.si_filtered", "coherence.si_filter_ratio"},
		Moves: []string{"host_run_ms", "virt_makespan_ms"}, On: []string{"pq_mutex", "lu_bulk"}, NotOn: []string{"pq_hqdl"}},
	{Layer: []string{"coherence.read_miss_host_ns", "coherence.read_miss_virt_ns", "directory.register_reader_host_ns", "directory.register_writer_host_ns",
		"fabric.line_fetch_host_ns", "fabric.line_fetch_virt_ns", "fabric.remote_read_host_ns", "fabric.remote_read_virt_ns",
		"fabric.remote_atomic_host_ns", "fabric.remote_atomic_virt_ns", "mem.read_page_host_ns",
		"coherence.read_misses", "cache.cold_fetches", "cache.prefetched_pages", "cache.prefetch_per_miss", "directory.dir_ops", "directory.dir_notifies"},
		Moves: []string{"virt_makespan_ms", "host_run_ms"}, On: []string{"drf_scatter", "cg_gather"}},
	{Layer: []string{"vela.barrier_host_us", "vela.barrier_virt_ns", "vela.flag_roundtrip_host_us", "sim.resource_occupy_host_ns", "sim.resource_occupy_contended_host_ns"},
		Moves: []string{"host_run_ms", "virt_makespan_ms"}, On: []string{"lu_bulk", "lu_chaos"}, NotOn: []string{"pq_hqdl"}},
	{Layer: []string{"locks.hqdl_delegate_host_ns", "locks.hqdl_delegate_wait_host_ns", "locks.hqdl_cs_virt_ns", "locks.delegated_sections", "locks.delegation_ratio"},
		Moves: []string{"virt_makespan_ms", "host_run_ms"}, On: []string{"pq_hqdl"}, NotOn: []string{"pq_mutex"}},
	{Layer: []string{"locks.mutex_cs_host_ns", "locks.mutex_cs_virt_ns", "locks.cohort_cs_host_ns", "locks.handovers_remote", "locks.handovers_local", "locks.local_handover_ratio"},
		Moves: []string{"virt_makespan_ms"}, On: []string{"pq_mutex"}, NotOn: []string{"pq_hqdl"}},
	{Layer: []string{"core.new_cluster_host_ms", "core.launch_host_us", "core.init_host_ns_per_kb", "core.dump_host_ns_per_kb", "core.heap_inuse_peak_mb"},
		Moves: []string{"host_run_ms", "host_alloc_mb_per_run", "setup_s"}, On: []string{"pq_hqdl", "lu_bulk", "cg_gather", "drf_scatter", "pq_mutex", "lu_chaos"}},
	{Layer: []string{"health.deaths", "health.suspects", "health.epochs", "health.recovery_virt_overhead_pct"},
		Moves: []string{"virt_makespan_ms", failShare}, On: []string{"lu_chaos"}, NotOn: []string{"lu_bulk", "cg_gather", "drf_scatter", "pq_hqdl", "pq_mutex"}},
	{Layer: []string{"sim.virt_iqr_pct"},
		Moves: []string{"virt_makespan_ms"}, On: []string{"pq_hqdl", "drf_scatter"}},
	// Guards the probe-spine rewrite; the end-to-end runs are detached, so
	// the prediction is no move anywhere.
	{Layer: []string{"probes.read_hit_attached_host_ns", "probes.barrier_attached_host_us", "trace.overhead_pct"},
		Moves: []string{"host_run_ms"}, NotOn: []string{"lu_bulk", "cg_gather", "drf_scatter", "pq_hqdl", "pq_mutex", "lu_chaos"}},
	{Layer: []string{"attrib.access_pct", "attrib.miss_pct", "attrib.fence_pct", "attrib.sync_pct", "attrib.core_pct", "attrib.unattributed_pct", "host_run_ms_tail"},
		Moves: []string{"host_cpu_ms_per_run", "host_run_ms"}, On: []string{"cg_gather", "lu_bulk"}},
}
