// Package span is Pictor, the Argo simulator's causal tracing layer: it
// reads happens-before edges out of the log of a run that package trace
// keeps, and turns them into a virtual-time critical path with every
// nanosecond of the makespan attributed to a cost category.
//
// Three record types cover the model:
//
//   - Span paints an interval of one thread lane — a (node, tid) virtual
//     timeline — with a category: remote latency, NIC occupancy, lock wait,
//     SI sweep, SD/writeback burst, backoff, crash recovery. Lane time not
//     covered by any span is compute. Overlapping spans resolve by "the
//     narrowest paint wins", so a NIC-occupancy span recorded inside a
//     remote operation refines it rather than fighting it.
//   - Pub marks the source endpoint of a causal edge (a lock release, a
//     barrier arrival, a delegation enqueue, a crash).
//   - Sub marks the sink endpoint: the thread that resumed because of the
//     matching Pub. A Sub joins to the latest Pub of the same (kind, key)
//     not after it, which at a barrier selects exactly the serialization
//     point (the last arrival).
//
// Records reads them out of the events of package probe that a
// trace.Tracer keeps: the protocol layers emit facts, and the table below
// says which kinds paint a lane and which are the endpoints of an edge.
// Its records come out canonically sorted, so the event multiset — not the
// host interleaving — determines the analysis, online or from a saved log.
package span

import "argo/internal/probe"

// Category classifies where a nanosecond of lane time went.
type Category uint8

// Attribution categories, the critical-path analyzer's output vocabulary.
const (
	// Compute is the default: lane time no probe claimed.
	Compute Category = iota
	// Remote is requester-paid network latency (round trips, post chains).
	Remote
	// NIC is occupancy at a target NIC, including queueing behind other
	// clients (the narrow refinement inside a Remote span).
	NIC
	// LockWait is time blocked acquiring a lock or awaiting a delegation.
	LockWait
	// SISweep is the self-invalidation fence (sweep + filter decisions).
	SISweep
	// SDBurst is self-downgrade work: diff/writeback sweeps and the
	// home-grouped post bursts (also the burst phase inside an SI fence).
	SDBurst
	// Backoff is capped-exponential retry waiting under injected faults.
	Backoff
	// Recovery is crash-recovery time: failure-detection timeouts at
	// membership barriers and dead-holder lock excisions.
	Recovery
	// BarrierWait is rendezvous time at hierarchical-barrier phases.
	BarrierWait
	numCategories
)

var categoryNames = [numCategories]string{
	"compute", "remote", "nic", "lock-wait", "si-sweep", "sd-burst",
	"backoff", "recovery", "barrier-wait",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "category?"
}

// EdgeKind classifies a causal edge's synchronization mechanism.
type EdgeKind uint8

// Edge kinds. Pub/Sub pairs match on (kind, key).
const (
	// Handoff: ticket-lock release → next holder's grant observation.
	Handoff EdgeKind = iota
	// Delegate: HQDL delegation enqueue → helper executing the section.
	Delegate
	// DelegateDone: helper finishing a section → delegator's wait return.
	DelegateDone
	// Barrier: global rendezvous arrival → departure (per episode).
	Barrier
	// BarrierLocal: node-local first rendezvous of a hierarchical barrier.
	BarrierLocal
	// BarrierFinal: node-local release rendezvous.
	BarrierFinal
	// Crash: a node's crash-stop → the survivors' reconfiguration wait.
	Crash
	// Excise: membership excision → a recovery action it unblocked
	// (dead-holder lock lease expiry).
	Excise
	numEdgeKinds
)

var edgeKindNames = [numEdgeKinds]string{
	"handoff", "delegate", "delegate-done", "barrier", "barrier-local",
	"barrier-final", "crash", "excise",
}

func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return "edge?"
}

// RecType discriminates the three record shapes.
type RecType uint8

// Record types.
const (
	RSpan RecType = iota
	RPub
	RSub
)

// Record is one span, pub or sub.
type Record struct {
	Type RecType
	Node int
	Tid  int
	// T is the span end, pub time or sub time (virtual ns).
	T int64
	// Start is the span start (RSpan only).
	Start int64
	// Cat is the paint category (RSpan) or the wait category a matched
	// edge's covered interval is attributed to (RSub).
	Cat Category
	// Kind and Key identify the edge (RPub/RSub); pubs and subs match on
	// the pair.
	Kind EdgeKind
	Key  uint64
	// Arg is kind-specific context (episode, dead node, pages…).
	Arg int64
}

// Order places r in the canonical order of Pictor's records: T, Node, Tid, Type,
// Kind, Key, Start, Cat, Arg.
func (r Record) Order() probe.Order {
	return probe.Order{r.T, int64(r.Node), int64(r.Tid), int64(r.Type), int64(r.Kind), int64(r.Key), r.Start, int64(r.Cat), r.Arg}
}

// sortRecords sorts recs into the canonical order used by Records.
func sortRecords(recs []Record) { probe.Sort(recs) }

// view is Pictor's projection of one probe kind. A fact that took virtual
// time paints its thread's lane with cat over [Start, T), Arg riding along;
// a fact that is one end of a causal edge becomes a pub or a sub of (edge,
// Event.Key), a sub attributing the interval its edge covers to cat. Kinds
// with the zero view are not Pictor's.
type view struct {
	cat  Category
	end  RecType // RPub or RSub; RSpan: not an edge endpoint
	edge EdgeKind
}

var views = [probe.NumKinds]view{
	probe.NIC:         {cat: NIC},
	probe.OpRead:      {cat: Remote},
	probe.OpWrite:     {cat: Remote},
	probe.OpFetch:     {cat: Remote},
	probe.OpAtomic:    {cat: Remote},
	probe.OpRegBurst:  {cat: Remote},
	probe.OpPostBurst: {cat: SDBurst},
	probe.SDFence:     {cat: SDBurst},
	probe.SIFence:     {cat: SISweep},
	probe.Backoff:     {cat: Backoff},
	probe.OpLost:      {cat: Backoff},
	probe.CutWait:     {cat: Recovery},

	probe.TicketRelease: {end: RPub, edge: Handoff},
	probe.TicketWait:    {cat: LockWait, end: RSub, edge: Handoff},
	probe.LeaseExpired:  {end: RPub, edge: Excise},
	probe.TicketRecover: {cat: Recovery, end: RSub, edge: Excise},
	probe.Delegate:      {end: RPub, edge: Delegate},
	probe.DelegateRun:   {cat: LockWait, end: RSub, edge: Delegate}, // an instant: attributes, never paints
	probe.DelegateDone:  {end: RPub, edge: DelegateDone},
	probe.DelegateWait:  {cat: LockWait, end: RSub, edge: DelegateDone},
	probe.ArriveLocal:   {end: RPub, edge: BarrierLocal},
	probe.DepartLocal:   {cat: BarrierWait, end: RSub, edge: BarrierLocal},
	probe.ArriveGlobal:  {end: RPub, edge: Barrier},
	probe.DepartGlobal:  {cat: BarrierWait, end: RSub, edge: Barrier},
	probe.ArriveFinal:   {end: RPub, edge: BarrierFinal},
	probe.DepartFinal:   {cat: BarrierWait, end: RSub, edge: BarrierFinal},
	probe.Crash:         {end: RPub, edge: Crash},
	probe.CrashWait:     {cat: Recovery, end: RSub, edge: Crash},
}

// Records is Pictor's reading of a run's log: every event projected through
// views — a span if the kind paints and the interval is not empty or inverted
// (a start before 0 is clamped), a pub or a sub if it is an edge endpoint — in
// the canonical order of Record.Order, and the makespan, the latest launch's
// end, to which analysis extends the critical path. The records are a
// function of the event multiset, not of the order events come in.
func Records(events []probe.Event) (recs []Record, makespan int64) {
	for _, e := range events {
		if e.Kind == probe.RunEnd {
			makespan = max(makespan, e.T)
			continue
		}
		v := views[e.Kind]
		if v.cat != Compute && e.T > e.Start {
			recs = append(recs, Record{Type: RSpan, Node: e.Node, Tid: e.Tid, T: e.T, Start: max(e.Start, 0), Cat: v.cat, Arg: e.Arg})
		}
		switch v.end {
		case RPub:
			recs = append(recs, Record{Type: RPub, Node: e.Node, Tid: e.Tid, T: e.T, Kind: v.edge, Key: e.Key, Arg: e.Arg})
		case RSub:
			recs = append(recs, Record{Type: RSub, Node: e.Node, Tid: e.Tid, T: e.T, Kind: v.edge, Key: e.Key, Cat: v.cat})
		}
	}
	sortRecords(recs)
	return recs, makespan
}
