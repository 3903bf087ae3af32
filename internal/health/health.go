// Package health is Cygnus, the Argo simulator's membership and
// crash-recovery layer.
//
// The paper's handler-free design makes crash tolerance tractable: every
// protocol action is a requester-issued one-sided operation, so a dead node
// leaves no remote agent to lose — only remotely-readable state to recover.
// Cygnus models the machinery a real deployment would need on top of that
// property:
//
//   - per-node heartbeat counters, published to home slots on the fabric by
//     each node's barrier representative once per episode;
//   - a deterministic failure detector driven by virtual time: a node that
//     crashes at virtual time T is "suspect" until T+fault.Timeout, "dead"
//     after that one detection timeout, and "excised" once the survivors'
//     membership view has dropped it;
//   - a monotonically increasing membership epoch, bumped once per excision
//     and once per rejoin, with a full transition history for replay
//     comparison.
//
// Crashes take effect only at safe points (synchronization operations).
// A crashing node loses its volatile state — page cache, write buffer,
// directory cache — but home memory and the Pyxis directory survive, which
// is DRF-sound: writes the dead node had not yet released were unobservable
// by any correct program, so discarding them cannot invalidate observed
// history.
//
// Cygnus II adds partial network partitions: a seed-hashed cut isolates a
// minority node subset for a span of barrier episodes while both sides stay
// alive. The detector distinguishes suspect-via-partition (state
// Partitioned: heals, rejoins without excision, volatile state intact) from
// suspect-via-crash (state Crashed: excised after one detection timeout) —
// though from the majority side both render as "suspect" until the episode
// barrier serializes the heal-vs-excise decision.
//
// Cygnus III adds asymmetric (one-way) cuts — only the directed link a→b
// is severed, so b suspects a while a still hears b; the cluster parks the
// source alone, never both endpoints, so asymmetric suspicion cannot
// double-excise — and the restart rendezvous that serializes a rejoining
// node against in-flight membership-epoch barriers (package core).
//
// Determinism: the detector holds membership state only — node states, the
// epoch, the transition history and the callbacks. Every verdict is the
// plan's: fault.Plan.CrashAt(node, episode) and fault.Plan.CutAt(episode,
// nodes) read its scripted entries first and draw pure hashes of (seed,
// node, episode) second, so a run's whole fault schedule is its plan. All
// state transitions are driven by the virtual clocks of the threads that
// discover them, so two runs of the same program produce identical crash
// schedules, membership-epoch histories and makespans.
package health

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"argo/internal/fault"
	"argo/internal/probe"
	"argo/internal/sim"
)

// CrashSignal is the panic value a simulated thread raises when its node
// crash-stops. core.Cluster.Run recovers it at the goroutine boundary, so a
// crash terminates the thread without failing the run.
type CrashSignal struct {
	Node    int
	Episode int64
}

func (c CrashSignal) Error() string {
	return fmt.Sprintf("health: node %d crash-stopped at barrier episode %d", c.Node, c.Episode)
}

// state is a node's position in the suspect→dead→excised lifecycle. Suspect
// and dead are one stored state (Crashed): what separates them is the
// detection timeout the survivors wait out before they excise.
type state int

const (
	// alive: a full member.
	alive state = iota
	// crashed: the node stopped at a safe point; survivors classify it as
	// suspect until one detection timeout has passed, dead afterwards.
	crashed
	// excised: the membership view has dropped the node (epoch bumped,
	// directory bits scheduled for scrubbing).
	excised
	// partitioned: the node is alive but unreachable across a network cut.
	// Survivors classify it as suspect, exactly like an undetected crash —
	// the two are indistinguishable from the majority side until the cut
	// heals (rejoin without excision) or the node really dies (excise).
	partitioned
)

func (s state) String() string {
	switch s {
	case alive:
		return "alive"
	case crashed:
		return "crashed"
	case excised:
		return "excised"
	case partitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Transition is one membership event, recorded for replay comparison.
type Transition struct {
	Epoch   int64 // membership epoch after the transition
	Node    int
	Kind    string   // "crash", "excise", "rejoin", "suspect" or "heal"
	Episode int64    // barrier episode at which it took effect
	At      sim.Time // virtual time of the transition
}

func (t Transition) String() string {
	return fmt.Sprintf("ep%d:%s(n%d)@e%d/t%d", t.Epoch, t.Kind, t.Node, t.Episode, t.At)
}

// Decision renders the transition without its virtual timestamp: which
// membership decision was taken, for which node, at which episode, landing
// on which epoch. Verdicts are pure functions of (seed, node, episode), so
// decisions replay bit-exactly even in workloads whose NIC contention makes
// virtual times scheduling-dependent (see the sim package comment).
func (t Transition) Decision() string {
	return fmt.Sprintf("ep%d:%s(n%d)@e%d", t.Epoch, t.Kind, t.Node, t.Episode)
}

// Detector is the cluster's failure detector and membership view. One
// instance per core.Cluster, always constructed: the member barrier and the
// lock leases consult it in fault-free runs too, where every verdict is
// Lives.
type Detector struct {
	nodes int
	plan  fault.Plan // the schedule every verdict reads

	// Obs, when non-nil, hears of every membership transition and of the
	// view (epoch, live nodes) it leaves. A Crash is the source endpoint of
	// the causal edge to the survivors' reconfiguration wait.
	Obs *probe.Spine

	mu        sync.Mutex
	state     []state
	diedEp    []int64 // episode of the last Kill, for idempotence
	epoch     atomic.Int64
	live      atomic.Int64
	history   []Transition
	onExcise  []func(node int, at sim.Time)
	onSuspect []func(node int, at sim.Time)
}

// New builds a detector for nodes members under plan.
func New(nodes int, plan fault.Plan) *Detector {
	d := &Detector{
		nodes:  nodes,
		plan:   plan,
		state:  make([]state, nodes),
		diedEp: make([]int64, nodes),
	}
	for i := range d.diedEp {
		d.diedEp[i] = -1
	}
	d.live.Store(int64(nodes))
	return d
}

// Nodes returns the configured member count.
func (d *Detector) Nodes() int { return d.nodes }

// Armed reports whether crashes or partitions can occur at all. When false,
// barrier representatives publish no heartbeats.
func (d *Detector) Armed() bool { return d.plan.Armed() }

// ArmsPoint reports whether crash verdicts fire early at the given safe
// point (barrier entry is always armed).
func (d *Detector) ArmsPoint(pt fault.SafePoint) bool { return d.plan.ArmsPoint(pt) }

// CutAt returns the shape of the partition active at the given barrier
// episode, or a zero Cut (nil Iso) when the fabric is whole: the plan's
// verdict for this cluster.
func (d *Detector) CutAt(ep int64) fault.Cut { return d.plan.CutAt(ep, d.nodes) }

// Alive reports whether node is currently a live member.
func (d *Detector) Alive(node int) bool {
	d.mu.Lock()
	ok := d.state[node] == alive
	d.mu.Unlock()
	return ok
}

// LiveCount returns the number of live members (lock-free; for metrics and
// quick checks).
func (d *Detector) LiveCount() int { return int(d.live.Load()) }

// Epoch returns the current membership epoch (0 until the first excision).
func (d *Detector) Epoch() int64 { return d.epoch.Load() }

// OnExcise registers a callback invoked (outside the detector lock) when a
// dead node is excised from the membership. Unlike the kill — during which
// sibling threads of the dead node may still be running their epoch tails —
// excision guarantees the dead node is fully stopped.
func (d *Detector) OnExcise(fn func(node int, at sim.Time)) {
	d.mu.Lock()
	d.onExcise = append(d.onExcise, fn)
	d.mu.Unlock()
}

// OnSuspect registers a callback invoked (outside the detector lock) when a
// node becomes suspect via partition. The lock layer hooks here to expire a
// cut-off holder's lease, exactly as OnExcise does for a dead holder.
func (d *Detector) OnSuspect(fn func(node int, at sim.Time)) {
	d.mu.Lock()
	d.onSuspect = append(d.onSuspect, fn)
	d.mu.Unlock()
}

// report emits one membership transition of node and the view it leaves.
func (d *Detector) report(k probe.Kind, node int, at sim.Time, ep, aux int64) {
	if d.Obs == nil {
		return
	}
	d.Obs.Emit(probe.Event{Kind: k, Node: node, Start: at, T: at, Key: uint64(ep), Arg: int64(node), Aux: aux})
	d.Obs.Emit(probe.Event{Kind: probe.Membership, Start: at, T: at, Arg: d.epoch.Load(), Aux: d.live.Load()})
}

// Kill crash-stops node at virtual time at during barrier episode ep, the
// verdict having fired at safe point point (a probe.CrashAt* code). It
// returns true for the first kill of that (node, episode) and is a no-op
// for a repeat. The member barrier calls it once per death, from the node's
// last crash check-in with the latest of its threads' check-in clocks, so
// the stamp replays with the seed however many threads the node runs.
func (d *Detector) Kill(node int, at sim.Time, ep, point int64) bool {
	d.mu.Lock()
	if d.diedEp[node] == ep {
		d.mu.Unlock()
		return false
	}
	if d.state[node] != alive && d.state[node] != partitioned {
		d.mu.Unlock()
		return false
	}
	d.state[node] = crashed
	d.diedEp[node] = ep
	d.live.Add(-1)
	d.history = append(d.history, Transition{
		Epoch: d.epoch.Load(), Node: node, Kind: "crash", Episode: ep, At: at,
	})
	d.mu.Unlock()
	d.report(probe.Crash, node, at, ep, point)
	return true
}

// Excise drops a crashed node from the membership view, bumping the epoch.
// Called by the barrier episode that completes the reconfiguration — by which
// point every thread of the dead node has stopped, so OnExcise callbacks
// (lock lease recovery) can reassign resources without racing the dead.
func (d *Detector) Excise(node int, at sim.Time, ep int64) {
	d.mu.Lock()
	d.state[node] = excised
	e := d.epoch.Add(1)
	d.history = append(d.history, Transition{
		Epoch: e, Node: node, Kind: "excise", Episode: ep, At: at,
	})
	cbs := append([]func(int, sim.Time){}, d.onExcise...)
	d.mu.Unlock()
	d.report(probe.Excise, node, at, ep, 0)
	for _, fn := range cbs {
		fn(node, at)
	}
}

// Rejoin readmits an excised node (crash-restart), bumping the epoch.
func (d *Detector) Rejoin(node int, at sim.Time, ep int64) {
	d.mu.Lock()
	d.state[node] = alive
	d.live.Add(1)
	e := d.epoch.Add(1)
	d.history = append(d.history, Transition{
		Epoch: e, Node: node, Kind: "rejoin", Episode: ep, At: at,
	})
	d.mu.Unlock()
	d.report(probe.Rejoin, node, at, ep, 0)
}

// Suspect marks node as suspect-via-partition at virtual time at during
// barrier episode ep: the node is alive but cut off, so the epoch is not
// bumped and the live count is untouched — healing must not look like a
// membership change. Idempotent while the node stays partitioned.
func (d *Detector) Suspect(node int, at sim.Time, ep int64) {
	d.mu.Lock()
	if d.state[node] != alive {
		d.mu.Unlock()
		return
	}
	d.state[node] = partitioned
	d.history = append(d.history, Transition{
		Epoch: d.epoch.Load(), Node: node, Kind: "suspect", Episode: ep, At: at,
	})
	cbs := append([]func(int, sim.Time){}, d.onSuspect...)
	d.mu.Unlock()
	d.report(probe.Suspect, node, at, ep, 0)
	for _, fn := range cbs {
		fn(node, at)
	}
}

// Heal readmits a partitioned node once the cut clears, bumping the epoch
// (the survivors' membership view changed twice — out and back — but the
// node was never excised, so its volatile state survives intact).
func (d *Detector) Heal(node int, at sim.Time, ep int64) {
	d.mu.Lock()
	if d.state[node] != partitioned {
		d.mu.Unlock()
		return
	}
	d.state[node] = alive
	e := d.epoch.Add(1)
	d.history = append(d.history, Transition{
		Epoch: e, Node: node, Kind: "heal", Episode: ep, At: at,
	})
	d.mu.Unlock()
	d.report(probe.Heal, node, at, ep, 0)
}

// Heartbeat reports one published heartbeat of node.
func (d *Detector) Heartbeat(node int) {
	if d.Obs != nil {
		d.Obs.Emit(probe.Event{Kind: probe.Heartbeat, Node: node})
	}
}

// History returns a copy of the membership transitions so far.
func (d *Detector) History() []Transition {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Transition{}, d.history...)
}

// canonicalHistory returns the transition history with every run of
// concurrent transitions — same kind, same episode, same resulting epoch:
// the crashes of one episode — ordered by node. Such transitions are recorded
// by whichever node's thread reaches the safe point first on the host, so
// their recording order is not part of what replays. (Excisions, rejoins and
// heals each land on their own epoch, in the order the barrier serializes.)
func (d *Detector) canonicalHistory() []Transition {
	h := d.History()
	concurrent := func(a, b Transition) bool {
		return a.Kind == b.Kind && a.Episode == b.Episode && a.Epoch == b.Epoch
	}
	for i := 0; i < len(h); {
		j := i + 1
		for j < len(h) && concurrent(h[i], h[j]) {
			j++
		}
		slices.SortFunc(h[i:j], func(a, b Transition) int { return cmp.Compare(a.Node, b.Node) })
		i = j
	}
	return h
}

// HistoryString renders the transition history canonically (for replay
// equality checks: two same-seed runs must produce identical strings).
func (d *Detector) HistoryString() string {
	h := d.canonicalHistory()
	parts := make([]string, len(h))
	for i, t := range h {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// DecisionHistoryString renders the transition history without virtual
// timestamps. Replay checks for contended workloads compare this form:
// the decision sequence is a pure function of the fault schedule, while
// transition times inherit the scheduling jitter of saturated NICs.
func (d *Detector) DecisionHistoryString() string {
	h := d.canonicalHistory()
	parts := make([]string, len(h))
	for i, t := range h {
		parts[i] = t.Decision()
	}
	return strings.Join(parts, " ")
}

// Reset returns the detector to the all-alive, epoch-zero state (between
// seeded runs of one cluster). The plan, scripts included, and the callbacks
// persist, so a replayed run repeats its schedule over the structures the
// callbacks guard.
func (d *Detector) Reset() {
	d.mu.Lock()
	for i := range d.state {
		d.state[i] = alive
		d.diedEp[i] = -1
	}
	d.epoch.Store(0)
	d.live.Store(int64(d.nodes))
	d.history = nil
	d.mu.Unlock()
	if d.Obs != nil {
		d.Obs.Emit(probe.Event{Kind: probe.Membership, Aux: int64(d.nodes)})
	}
}
