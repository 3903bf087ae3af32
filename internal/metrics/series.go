package metrics

import (
	"sync"

	"argo/internal/fault"
	"argo/internal/probe"
)

// value selects what an event adds to a counter, records in a histogram or
// sets a gauge to: 1 (the event itself is counted), its virtual duration, its
// Arg or its Aux.
type value func(probe.Event) int64

func one(probe.Event) int64   { return 1 }
func dur(e probe.Event) int64 { return e.Dur() }
func arg(e probe.Event) int64 { return e.Arg }
func aux(e probe.Event) int64 { return e.Aux }

// feed sends val of every event of kind into one series of a family: the one
// labelled label, or — when by is set — the one labelled by[Event.Arg].
type feed struct {
	kind  probe.Kind
	label string
	by    []string
	val   value
}

// def defines one metric family and everything that feeds it; key is its
// label key ("" for a single unlabelled series).
type def struct {
	typ        metricKind
	name, help string
	key        string
	feeds      []feed
}

// Label values selected by an event's Arg.
var (
	classes    = make([]string, fault.NumClasses) // by fault.Class
	faultKinds = []string{probe.FaultDrop: "drop", probe.FaultDelay: "delay", probe.FaultStall: "stall", probe.FaultAtomicFail: "atomic_fail"}
	lockAlgos  = []string{probe.LockMutex: "dsm-mutex", probe.LockCohort: "cohort", probe.LockHQDL: "hqdl"}
)

func init() {
	for c := range classes {
		classes[c] = fault.Class(c).String()
	}
}

// ops lists the fabric's remote operations with their op label. Their
// histograms measure virtual time from issue to completion as seen by the
// issuing thread — wire latency plus NIC occupancy (queueing), the quantity
// the paper's Figure 7 reasons about. Loopback operations never touch the
// wire and are not events.
func ops(val value) []feed {
	return []feed{
		{probe.OpRead, "remote_read", nil, val}, {probe.OpWrite, "remote_write", nil, val},
		{probe.OpPost, "posted_write", nil, val}, {probe.OpFetch, "line_fetch", nil, val},
		{probe.OpAtomic, "remote_atomic", nil, val}, {probe.OpPostBurst, "posted_burst", nil, val},
		{probe.OpRegBurst, "reg_burst", nil, val},
	}
}

// families is Argoscope's whole vocabulary: every series name, help string and
// label, and the probe kinds behind each. A suite registers them all on its
// first event: one that observed a cluster exports every series (a lock
// algorithm nobody built reads zero), one that observed nothing exports none.
var families = []def{
	// Page cache. Hits are published in batches, at fences and at the end of
	// a launch, from the threads' own counts: a hit itself emits nothing.
	{kindCounter, "argo_cache_events_total", "Page-cache events by kind", "event", []feed{
		{probe.Hits, "hit", nil, arg}, {probe.ReadMiss, "miss", nil, one}, {probe.Evict, "eviction", nil, one}}},
	{kindHistogram, "argo_cache_wb_drain_pages", "Write-buffer entries drained per SD fence", "", []feed{
		{probe.WBDrain, "", nil, arg}}},

	// Carina fences: durations, the per-fence split of pages invalidated vs.
	// retained (how well the Pyxis classification filters SI), and the Lyra
	// pipeline's burst shape and write-buffer residue.
	{kindHistogram, "argo_fence_ns", "Virtual duration of coherence fences", "kind", []feed{
		{probe.SIFence, "si", nil, dur}, {probe.SDFence, "sd", nil, dur}}},
	{kindHistogram, "argo_si_fence_pages", "Pages examined per SI fence by outcome", "outcome", []feed{
		{probe.SIFence, "invalidated", nil, arg}, {probe.SIFence, "kept", nil, aux}}},
	{kindCounter, "argo_fence_pages_total", "Pages processed at SI fences by outcome", "outcome", []feed{
		{probe.SIFence, "invalidated", nil, arg}, {probe.SIFence, "kept", nil, aux}}},
	{kindHistogram, "argo_fence_burst_pages", "Pages posted per home-grouped fence downgrade burst", "", []feed{
		{probe.WBBurst, "", nil, arg}}},
	{kindHistogram, "argo_fence_burst_homes", "Distinct home nodes per fence downgrade burst", "", []feed{
		{probe.WBBurst, "", nil, aux}}},
	{kindHistogram, "argo_fence_drain_residue_pages", "Write-buffer entries remaining when an SD fence begins", "", []feed{
		{probe.SDFence, "", nil, aux}}},

	// Fabric operations and Corvus faults (requester-side view). A lost
	// operation is an injected drop and the reissue that must follow it.
	{kindHistogram, "argo_fabric_op_ns", "Virtual latency of remote fabric operations (issue to completion, incl. NIC queueing)", "op", ops(dur)},
	{kindCounter, "argo_fabric_ops_total", "Remote fabric operations issued", "op", ops(one)},
	{kindCounter, "argo_fault_retries_total", "Operation reissues after an injected fault (Corvus)", "op", []feed{
		{probe.Retry, "", classes, aux}, {probe.OpLost, "", classes, one}}},
	{kindHistogram, "argo_fault_recovery_ns", "Virtual latency from first issue to successful completion of faulted operations", "op", []feed{
		{probe.Recovered, "", classes, dur}}},
	{kindCounter, "argo_fault_injected_total", "Fault events injected by Corvus, by kind", "kind", []feed{
		{probe.Fault, "", faultKinds, one}, {probe.OpLost, "drop", nil, one}}},

	// Cygnus membership.
	{kindGauge, "argo_health_epoch", "Current membership epoch", "", []feed{{probe.Membership, "", nil, arg}}},
	{kindGauge, "argo_health_live_nodes", "Nodes currently alive", "", []feed{{probe.Membership, "", nil, aux}}},
	{kindCounter, "argo_health_heartbeats_total", "Heartbeat counters published to home slots", "", []feed{
		{probe.Heartbeat, "", nil, one}}},
	{kindCounter, "argo_crash_events_total", "Cygnus crash, excision and rejoin events", "event", []feed{
		{probe.Crash, "crash", nil, one}, {probe.Excise, "excise", nil, one}, {probe.Rejoin, "rejoin", nil, one}}},
	{kindCounter, "argo_partition_events_total", "Cygnus partition suspect and heal events", "event", []feed{
		{probe.Suspect, "suspect", nil, one}, {probe.Heal, "heal", nil, one}}},

	// Vela's hierarchical barrier: the local rendezvous every thread pays, the
	// representative's SD + global + SI leg, and the whole episode end to end.
	{kindHistogram, "argo_barrier_phase_ns", "Virtual time a thread spends in one hierarchical-barrier phase", "phase", []feed{
		{probe.DepartLocal, "local", nil, dur}, {probe.BarrierRep, "representative", nil, dur}, {probe.BarrierEpisode, "episode", nil, dur}}},
	{kindHistogram, "argo_barrier_wait_ns", "Virtual time a thread spends waiting at barrier rendezvous per episode (excl. fences)", "", []feed{
		{probe.BarrierEpisode, "", nil, arg}}},
	{kindCounter, "argo_barrier_events_total", "Barrier episodes completed and classification resets performed", "event", []feed{
		{probe.BarrierRep, "episode", nil, arg}, {probe.BarrierRep, "reset", nil, aux}}},

	// DSM locks, by algorithm: the acquire latency is ticket + handover + SI
	// fence, the full cost a critical section pays before it can start.
	{kindHistogram, "argo_lock_acquire_ns", "Virtual latency from lock call to critical-section entry (incl. acquire fence)", "lock", []feed{
		{probe.LockAcquire, "", lockAlgos, dur}}},
	{kindHistogram, "argo_lock_wait_ns", "Virtual wait from lock call to lock-word ownership (ticket + queue, excl. acquire fence)", "lock", []feed{
		{probe.LockAcquire, "", lockAlgos, aux}}},
	{kindCounter, "argo_lock_acquires_total", "Lock acquisitions", "lock", []feed{{probe.LockAcquire, "", lockAlgos, one}}},
	{kindCounter, "argo_lock_retries_total", "Lock-word operation reissues under injected faults", "lock", []feed{
		{probe.LockRetries, "ticket", nil, arg}}},
	{kindCounter, "argo_crash_lock_excisions_total", "Dead lock holders excised via lease recovery", "", []feed{
		{probe.LockExcision, "", nil, one}}},
	{kindHistogram, "argo_hqdl_batch_sections", "Critical sections executed per helper batch (one global acquire + fence pair)", "", []feed{
		{probe.HQDLBatch, "", nil, arg}}},
}

// instrument is what a bound feed writes to: a counter adds, a gauge is set,
// a histogram records on the emitting node's shard.
type instrument interface{ put(node int, v int64) }

func (c *Counter) put(_ int, v int64)      { c.add(v) }
func (g *gauge) put(_ int, v int64)        { g.set(v) }
func (h *histogram) put(node int, v int64) { h.record(node, v) }

// bound is a feed resolved against a registry: events whose Arg is when (any
// Arg if when is negative) put val into to.
type bound struct {
	val  value
	when int64
	to   instrument
}

// series returns f's series labelled label in r.
func (r *Registry) series(f def, label string) instrument {
	var ls []Label
	if f.key != "" {
		ls = []Label{{f.key, label}}
	}
	switch f.typ {
	case kindCounter:
		return r.Counter(f.name, f.help, ls...)
	case kindGauge:
		return r.gauge(f.name, f.help, ls...)
	}
	return r.histogram(f.name, f.help, ls...)
}

// Suite bundles the registry with the hot-spot profiles; it is the sink a
// cluster reports into (core.Config.Observers). Several clusters may share
// one: series are keyed by name and labels and accumulate.
type Suite struct {
	Reg   *Registry
	Pages *PageProfile
	Locks *LockProfile

	bind  sync.Once // registers families, on the first event
	feeds [probe.NumKinds][]bound

	// lockStats maps a lock's key to its *LockStat, from its LockNew on. Keys
	// are per cluster: of two clusters' locks with one key the last built wins.
	lockStats sync.Map
}

// NewSuite creates an empty observability suite.
func NewSuite() *Suite {
	return &Suite{Reg: newRegistry(), Pages: newPageProfile(), Locks: newLockProfile()}
}

// register resolves every series of families in s.Reg and binds the feeds.
func (s *Suite) register() {
	for _, f := range families {
		for _, fd := range f.feeds {
			if fd.by == nil {
				s.feeds[fd.kind] = append(s.feeds[fd.kind], bound{fd.val, -1, s.Reg.series(f, fd.label)})
			}
			for code, label := range fd.by {
				s.feeds[fd.kind] = append(s.feeds[fd.kind], bound{fd.val, int64(code), s.Reg.series(f, label)})
			}
		}
	}
}

// pageNotes says which kinds the page profile counts, and as what.
var pageNotes = [probe.NumKinds]func(*PageProfile, int){
	probe.ReadMiss: (*PageProfile).readMiss, probe.WriteMiss: (*PageProfile).writeMiss,
	probe.Writeback: (*PageProfile).writeback, probe.Invalidate: (*PageProfile).invalidate,
	probe.Notify: (*PageProfile).notify, probe.Evict: (*PageProfile).evict,
}

// Observe feeds e into every series families binds to its kind, then into
// the page and lock profiles (probe.Sink). Pages are attributed on protocol
// events only — never on hits — so the profile's cost is proportional to
// protocol traffic.
func (s *Suite) Observe(e probe.Event) {
	s.bind.Do(s.register)
	for _, b := range s.feeds[e.Kind] {
		if b.when < 0 || b.when == e.Arg {
			b.to.put(e.Node, b.val(e))
		}
	}
	if note := pageNotes[e.Kind]; note != nil {
		note(s.Pages, e.Page)
	}
	switch e.Kind {
	case probe.LockNew:
		s.lockStats.Store(e.Key, s.Locks.register(lockAlgos[e.Arg]))
	case probe.LockAcquire:
		s.lockStat(e.Key).acquired(e.Dur())
	case probe.LockRelease:
		st := s.lockStat(e.Key)
		st.released(e.Dur())
		st.Local.Add(e.Arg)
		st.Remote.Add(e.Aux)
	case probe.DelegateDone:
		s.lockStat(uint64(e.Aux)).Delegated.Add(1)
	}
}

// lockStat returns the profile entry of the lock named key.
func (s *Suite) lockStat(key uint64) *lockCounters {
	if st, ok := s.lockStats.Load(key); ok {
		return st.(*lockCounters)
	}
	return new(lockCounters) // a lock nobody announced is counted nowhere
}
