// Package fault is Corvus, the Argo simulator's fault-injection and
// resilience subsystem.
//
// The paper's central design rule — every Carina/Pyxis/Vela protocol action
// is a one-sided RDMA operation issued and paid for by the requester, with
// no message handlers anywhere — has a sharp consequence for fault handling:
// a lost, delayed or stalled operation has no server-side agent that could
// notice and recover it. The requester alone must detect the loss (by
// timeout or missing completion) and reissue the operation. That recovery is
// sound precisely because the operations are one-sided and handler-free:
//
//   - remote page reads and line fetches are idempotent by definition;
//   - posted writebacks transmit diffs (or full pages) against a stable
//     twin, so applying the same downgrade twice is a no-op;
//   - Pyxis directory updates are fetch-and-OR on full-map words —
//     OR is idempotent, so a reissued registration is harmless;
//   - ticket/grant words are only moved through failure-before-effect
//     transients in this model, so a reissued atomic never double-fires.
//
// Corvus injects failures at the fabric layer and lets each protocol layer
// own its recovery policy: the fabric retries round-trip operations with
// per-op timeouts and capped exponential backoff; the coherence layer
// re-fences when a posted self-downgrade is lost; the lock layer backs off
// instead of spinning against a dead NIC.
//
// # Determinism
//
// Injection decisions are a pure function of (seed, issuing node, op class,
// target node, resource key, attempt index) — there are no counters and no
// host-time randomness anywhere. The simulator executes simulated threads
// with real concurrency, so any schedule-dependent source (per-op sequence
// numbers, wall clocks) would make two runs of the same program inject
// different faults. Keying on the operation's identity instead makes the
// injected schedule, the retry counts and the virtual makespan reproducible
// across runs: faultiness sticks to (who, what, whom) tuples, like a flaky
// link or a degraded NIC does in a real machine room, rather than to a
// dice-roll per packet.
package fault

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"argo/internal/sim"
)

// Class identifies the kind of one-sided operation a verdict applies to.
// It is part of the hash identity, so the same resource can be lossy for
// fetches yet clean for writebacks.
type Class int

const (
	// ClassRead is a remote RDMA read (page pulls, lock polls).
	ClassRead Class = iota
	// ClassWrite is a synchronous remote RDMA write (notifications,
	// grant updates, flag publishes).
	ClassWrite
	// ClassPost is a posted (fire-and-forget) one-sided write — the
	// writeback path. A lost post is only discovered at the next fence.
	ClassPost
	// ClassFetch is a batched cache-line fetch burst.
	ClassFetch
	// ClassAtomic is a remote atomic (fetch-and-or / fetch-and-add / CAS)
	// executed by the target NIC.
	ClassAtomic
	// ClassCrash is a crash-stop node failure (Cygnus). Unlike the
	// transient classes it is not drawn per operation attempt: the verdict
	// is a pure hash of (seed, node, barrier episode) evaluated at safe
	// points only (see Plan.CrashAt).
	ClassCrash
	// ClassPartition is a partial network partition: fabric reachability
	// between two node subsets is severed for a span of barrier episodes
	// while both sides stay alive. Like ClassCrash the verdict is a pure
	// hash of (seed, episode) — see Plan.CutAt.
	ClassPartition

	// NumClasses is the number of operation classes.
	NumClasses = 7
)

func (c Class) String() string {
	switch c {
	case ClassRead:
		return "remote_read"
	case ClassWrite:
		return "remote_write"
	case ClassPost:
		return "posted_write"
	case ClassFetch:
		return "line_fetch"
	case ClassAtomic:
		return "remote_atomic"
	case ClassCrash:
		return "crash"
	case ClassPartition:
		return "partition"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// SafePoint identifies a synchronization operation class at which a
// pending crash verdict may be delivered. Crashes only ever fire at safe
// points: the victim's write buffer is wiped whole, never half-drained, so
// home memory stays DRF-consistent for the survivors.
type SafePoint int

const (
	// SafeBarrier is barrier entry — always armed; the backstop that
	// guarantees a crash verdict for episode e lands by barrier e.
	SafeBarrier SafePoint = 1 << iota
	// SafeLock is GlobalTicketLock (and thus HQDL/DSMMutex/cohort)
	// acquire and release.
	SafeLock
	// SafeFlag is Flag wait entry and signal exit.
	SafeFlag
)

// safePointNames orders the renderable plan bits for specs ("lock+flag").
var safePointNames = []struct {
	bit  SafePoint
	name string
}{{SafeBarrier, "barrier"}, {SafeLock, "lock"}, {SafeFlag, "flag"}}

// String renders the set as a '+'-joined spec list ("lock+flag").
func (s SafePoint) String() string {
	var parts []string
	for _, e := range safePointNames {
		if s&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "barrier"
	}
	return strings.Join(parts, "+")
}

// parseSafePoints parses a '+'-joined safe-point list. "barrier" is
// accepted and ignored (barrier entry is always armed).
func parseSafePoints(s string) (SafePoint, error) {
	var out SafePoint
	for _, tok := range strings.Split(s, "+") {
		tok = strings.ToLower(strings.TrimSpace(tok))
		switch tok {
		case "", "barrier":
			// Barriers are always armed; the bit only matters for trace
			// tagging, never as a plan knob.
		case "lock":
			out |= SafeLock
		case "flag":
			out |= SafeFlag
		default:
			return 0, fmt.Errorf("unknown safe point %q (want barrier, lock, flag)", tok)
		}
	}
	return out, nil
}

// Plan describes what Corvus injects; the zero value injects nothing. How a
// requester recovers is not part of a plan (see Timeout), so the spec a plan
// renders to (String) names everything that drives its run: its rates and
// its scripts alike.
type Plan struct {
	// Seed drives every injection decision. Same seed, same program ⇒
	// same injected schedule.
	Seed int64

	// Drop is the probability that an operation identity is lost in
	// flight: the requester times out, backs off and reissues.
	Drop float64
	// Delay is the probability that a delivered operation is late;
	// Jitter is the maximum injected extra latency (uniform in
	// [0, Jitter], drawn deterministically from the identity).
	Delay  float64
	Jitter sim.Time
	// StallP is the probability that the target NIC stalls for Stall
	// virtual nanoseconds while serving the operation. The stall occupies
	// the NIC, so innocent bystanders queue behind it.
	StallP float64
	Stall  sim.Time
	// AtomicFail is the probability that a remote atomic reaches the
	// target NIC but fails transiently (the requester pays the full round
	// trip before it can reissue). Failure happens before the operation
	// takes effect, which is what makes reissue safe for non-idempotent
	// atomics like fetch-and-increment.
	AtomicFail float64
	// Crash is the per-(node, barrier episode) probability of a crash-stop
	// failure, evaluated only at safe points (sync operations). The draw
	// is a pure hash of (Seed, node, episode), so the crash schedule is
	// bit-identical across runs — see CrashAt.
	Crash float64
	// CrashRestart makes crashed nodes rejoin (with empty caches) at the
	// barrier episode after their death instead of staying down.
	CrashRestart bool
	// CrashPoints arms additional safe points for crash delivery beyond
	// barrier entry (which is always armed): SafeLock fires the verdict at
	// ticket-lock acquire/release, SafeFlag at flag wait/signal. An early
	// delivery uses the same per-(node, episode) schedule — the node that
	// would have died at barrier e instead dies at its first armed sync op
	// inside interval e-1 — so the crash schedule is identical either way.
	CrashPoints SafePoint
	// Partition is the per-episode probability that a partial network
	// partition begins (at most one partition is active at a time; a new
	// one can only start once the previous has healed).
	Partition float64
	// PartitionDur is how many barrier episodes a partition lasts
	// (default 1).
	PartitionDur int
	// PartitionCut is how many nodes the cut isolates on the minority
	// side (default 1, clamped to nodes-1). The isolated set is a hash-
	// chosen run of consecutive node ids — see CutAt.
	PartitionCut int
	// PartitionOneWay selects the asymmetric cut shape (Cygnus III,
	// spec "partcut=a>b"): instead of isolating a hash-chosen minority
	// both ways, each partition span severs only the directed link
	// PartitionFrom→PartitionTo. The reverse direction keeps flowing, so
	// the target still hears the source's targets while the source's own
	// traffic toward the target is dropped; the cluster conservatively
	// parks the source node (the only node whose released writes could be
	// lost across the cut) for the span — see CutAt.
	PartitionOneWay            bool
	PartitionFrom, PartitionTo int

	// Crashes scripts deaths (keys crashat, restartat): a listed node dies as
	// its entry says and ignores the Crash draws. One entry per node, in node
	// order.
	Crashes []ScriptedCrash
	// Cuts scripts partitions (key cutat). They override the drawn ones while
	// active; of two that overlap, the first listed wins.
	Cuts []ScriptedCut
}

// ScriptedCrash is one scripted death: Node crash-stops at barrier episode
// Episode and, with Restart, rejoins within it.
type ScriptedCrash struct {
	Node    int
	Episode int64
	Restart bool
}

// ScriptedCut is one scripted partition over barrier episodes [Start,
// Start+Dur-1]: a symmetric cut isolating Nodes or, when OneWay, the
// directed sever From→To.
type ScriptedCut struct {
	Start, Dur int64
	Nodes      []int
	OneWay     bool
	From, To   int
}

// Cut is the partition shape active at one episode: the parked
// (minority-side) member set, and — for a one-way cut — the directed severed
// link. For a symmetric cut OneWay is false and Iso is the full minority; for
// a one-way cut Iso is the source node alone (the only node whose released
// writes could be lost across the cut; the target still hears everyone and
// stays a full member, which is what prevents the asymmetric-suspicion
// double-excise: only the source is ever suspected).
type Cut struct {
	Iso      []int
	OneWay   bool
	From, To int
}

// Requester-side recovery is the same under every plan: a lost operation is
// detected after Timeout, and the reissues between attempts back off
// exponentially from Backoff, capped at BackoffCap. An operation identity is
// reissued at most maxRetries times: the attempt after the last retry always
// delivers — the model's stand-in for the NIC driver escalating to a slow
// reliable path — so protocol progress is guaranteed and answers stay exact
// under any plan.
const (
	Timeout    sim.Time = 10_000 // a few remote round trips
	maxRetries          = 8
	Backoff    sim.Time = 1_000
	BackoffCap sim.Time = 64_000
)

// normalize fills the partition defaults — a partition rate without partdur
// or partcut lasts one episode and cuts one node — and orders the scripted
// crashes by node, whichever of crashat and restartat listed them.
func (p *Plan) normalize() {
	if p.Partition > 0 {
		if p.PartitionDur == 0 {
			p.PartitionDur = 1
		}
		if !p.PartitionOneWay && p.PartitionCut == 0 {
			p.PartitionCut = 1
		}
	}
	slices.SortFunc(p.Crashes, func(a, b ScriptedCrash) int { return a.Node - b.Node })
}

// Validate reports whether the plan is usable.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"delay", p.Delay}, {"stallp", p.StallP}, {"atomicfail", p.AtomicFail}, {"crash", p.Crash}, {"partition", p.Partition}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s rate %g outside [0,1]", r.name, r.v)
		}
	}
	if p.Jitter < 0 || p.Stall < 0 {
		return fmt.Errorf("fault: negative duration in plan %+v", p)
	}
	if p.CrashPoints&^(SafeBarrier|SafeLock|SafeFlag) != 0 {
		return fmt.Errorf("fault: unknown crashpoints bits %#x", int(p.CrashPoints))
	}
	if p.PartitionDur < 0 {
		return fmt.Errorf("fault: negative partdur %d", p.PartitionDur)
	}
	if p.PartitionCut < 0 {
		return fmt.Errorf("fault: negative partcut %d", p.PartitionCut)
	}
	if p.PartitionOneWay {
		if p.PartitionFrom < 0 || p.PartitionTo < 0 {
			return fmt.Errorf("fault: negative node in one-way cut %d>%d", p.PartitionFrom, p.PartitionTo)
		}
		if p.PartitionFrom == p.PartitionTo {
			return fmt.Errorf("fault: one-way cut %d>%d severs a node from itself", p.PartitionFrom, p.PartitionTo)
		}
	}
	for i, c := range p.Crashes {
		switch {
		case c.Node < 0 || c.Episode < 0:
			return fmt.Errorf("fault: negative field in scripted crash %s", c)
		case slices.ContainsFunc(p.Crashes[:i], func(o ScriptedCrash) bool { return o.Node == c.Node }):
			return fmt.Errorf("fault: node %d has two scripted crashes", c.Node)
		}
	}
	for _, c := range p.Cuts {
		switch {
		case c.Start < 0 || c.From < 0 || c.To < 0 || slices.ContainsFunc(c.Nodes, func(n int) bool { return n < 0 }):
			return fmt.Errorf("fault: negative field in scripted cut %s", c)
		case c.Dur < 1 || (c.OneWay && c.From == c.To) || (!c.OneWay && len(c.Nodes) == 0):
			return fmt.Errorf("fault: scripted cut %s cuts nothing", c)
		}
	}
	return nil
}

// Enabled reports whether the plan injects anything at all: the injector's
// switch, which reads the rates only (scripts need no injector).
func (p Plan) Enabled() bool {
	return p.Drop > 0 || p.Delay > 0 || (p.StallP > 0 && p.Stall > 0) ||
		p.AtomicFail > 0 || p.Crash > 0 || p.Partition > 0
}

// Armed reports whether the plan can crash a node or cut the fabric, by a
// rate or by a script.
func (p Plan) Armed() bool {
	return p.Crash > 0 || p.Partition > 0 || len(p.Crashes) > 0 || len(p.Cuts) > 0
}

// CrashAt reports whether node crashes at the given barrier episode
// (episodes count from 1), and whether it restarts afterwards. A scripted
// node dies as its entry says; any other draws a pure hash of (Seed, node,
// episode) — no counters, no host randomness — so a chaos run's crash
// schedule replays bit-exactly, and adding unrelated operations to a
// program never perturbs it.
func (p Plan) CrashAt(node int, episode int64) (dies, restart bool) {
	for _, c := range p.Crashes {
		if c.Node == node {
			return c.Episode == episode, c.Restart
		}
	}
	return p.Crash > 0 && unit(identity(p.Seed, node, ClassCrash, node, uint64(episode), 0)^saltCrash) < p.Crash, p.CrashRestart
}

// CutAt returns the shape of the partition active at the given barrier
// episode on a cluster of nodes members, or a zero Cut (nil Iso) when the
// fabric is whole: the first active scripted cut, else the drawn schedule.
// Pure, so host-side planners and the member barrier agree bit-exactly.
func (p Plan) CutAt(episode int64, nodes int) Cut {
	for _, c := range p.Cuts {
		if c.Start <= episode && episode < c.Start+c.Dur {
			if cut := c.on(nodes); len(cut.Iso) > 0 {
				return cut
			}
		}
	}
	start, ok := p.partitionSpan(episode)
	switch {
	case !ok:
		return Cut{}
	case p.PartitionOneWay:
		return ScriptedCut{OneWay: true, From: p.PartitionFrom, To: p.PartitionTo}.on(nodes)
	}
	return Cut{Iso: p.partitionCutAt(start, nodes)}
}

// on is the cut's shape on a cluster of nodes members: nodes outside it are
// left out, and a one-way cut with an endpoint outside it cuts nothing.
func (c ScriptedCut) on(nodes int) Cut {
	if c.OneWay {
		if c.From >= nodes || c.To >= nodes {
			return Cut{}
		}
		return Cut{Iso: []int{c.From}, OneWay: true, From: c.From, To: c.To}
	}
	iso := slices.DeleteFunc(slices.Clone(c.Nodes), func(n int) bool { return n >= nodes })
	slices.Sort(iso)
	return Cut{Iso: slices.Compact(iso)}
}

// ArmsPoint reports whether crash verdicts may be delivered early at the
// given safe point. Barrier entry is always armed (it is the backstop that
// keeps the schedule episode-exact); lock and flag points fire only when
// the plan opts in via CrashPoints.
func (p Plan) ArmsPoint(pt SafePoint) bool {
	return pt == SafeBarrier || p.CrashPoints&pt != 0
}

// partitionSpan reports whether a drawn partition is active at the given
// barrier episode and, if so, at which episode it started. At most one
// partition is in flight at a time: while episodes [s, s+dur-1] are
// partitioned, the per-episode start draws are ignored, and a new partition
// can begin no earlier than s+dur.
func (p Plan) partitionSpan(episode int64) (start int64, active bool) {
	if p.Partition <= 0 {
		return 0, false
	}
	dur := max(int64(p.PartitionDur), 1)
	var s int64 // start of the partition currently in flight; 0 = none
	for e := int64(1); e <= episode; e++ {
		if s > 0 && e >= s+dur {
			s = 0
		}
		if s == 0 && unit(identity(p.Seed, 0, ClassPartition, 0, uint64(e), 0)^saltPartition) < p.Partition {
			s = e
		}
	}
	return s, s > 0
}

// partitionCutAt returns the isolated (minority-side) node set of the drawn
// symmetric partition that started at the given episode: PartitionCut
// consecutive node ids beginning at a hash-chosen base, clamped to leave at
// least one node on the majority side. Sorted ascending; nil when the
// cluster is too small to cut.
func (p Plan) partitionCutAt(start int64, nodes int) []int {
	k := min(max(p.PartitionCut, 1), nodes-1)
	if k < 1 {
		return nil
	}
	base := int(mix(identity(p.Seed, 0, ClassPartition, 0, uint64(start), 1)^saltPartition) % uint64(nodes))
	out := make([]int, k)
	for i := range out {
		out[i] = (base + i) % nodes
	}
	sort.Ints(out)
	return out
}

// String renders the plan in ParsePlan's spec syntax.
func (p Plan) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if p.Drop > 0 {
		add("drop", strconv.FormatFloat(p.Drop, 'g', -1, 64))
	}
	if p.Delay > 0 {
		add("delay", strconv.FormatFloat(p.Delay, 'g', -1, 64))
		add("jitter", fmtDur(p.Jitter))
	}
	if p.StallP > 0 && p.Stall > 0 {
		add("stallp", strconv.FormatFloat(p.StallP, 'g', -1, 64))
		add("stall", fmtDur(p.Stall))
	}
	if p.AtomicFail > 0 {
		add("atomicfail", strconv.FormatFloat(p.AtomicFail, 'g', -1, 64))
	}
	if p.Crash > 0 {
		add("crash", strconv.FormatFloat(p.Crash, 'g', -1, 64))
		if p.CrashRestart {
			add("crashrestart", "on")
		}
	}
	scripts := map[string][]string{} // each key's entries in listed order
	for _, c := range p.Crashes {
		k := "crashat"
		if c.Restart {
			k = "restartat"
		}
		scripts[k] = append(scripts[k], c.String())
	}
	for _, c := range p.Cuts {
		scripts["cutat"] = append(scripts["cutat"], c.String())
	}
	for k, entries := range scripts {
		add(k, strings.Join(entries, "+"))
	}
	if p.CrashPoints != 0 {
		add("crashpoints", p.CrashPoints.String())
	}
	if p.Partition > 0 {
		add("partition", strconv.FormatFloat(p.Partition, 'g', -1, 64))
		if p.PartitionDur > 0 {
			add("partdur", strconv.Itoa(p.PartitionDur))
		}
		if p.PartitionOneWay {
			add("partcut", strconv.Itoa(p.PartitionFrom)+">"+strconv.Itoa(p.PartitionTo))
		} else if p.PartitionCut > 0 {
			add("partcut", strconv.Itoa(p.PartitionCut))
		}
	}
	add("seed", strconv.FormatInt(p.Seed, 10))
	sort.Strings(parts[:len(parts)-1]) // keep seed last for readability
	return strings.Join(parts, ",")
}

// String renders the crash as one crashat or restartat entry.
func (c ScriptedCrash) String() string { return fmt.Sprintf("%d@%d", c.Node, c.Episode) }

// String renders the cut as one cutat entry: "1.5@5:2" isolates nodes 1
// and 5 for episodes 5 and 6, "3>0@8:1" severs 3→0 for episode 8.
func (c ScriptedCut) String() string {
	what := strconv.Itoa(c.From) + ">" + strconv.Itoa(c.To)
	if !c.OneWay {
		nodes := make([]string, len(c.Nodes))
		for i, n := range c.Nodes {
			nodes[i] = strconv.Itoa(n)
		}
		what = strings.Join(nodes, ".")
	}
	return what + "@" + strconv.FormatInt(c.Start, 10) + ":" + strconv.FormatInt(c.Dur, 10)
}

func fmtDur(t sim.Time) string {
	switch {
	case t >= 1_000_000 && t%1_000_000 == 0:
		return strconv.FormatInt(t/1_000_000, 10) + "ms"
	case t >= 1_000 && t%1_000 == 0:
		return strconv.FormatInt(t/1_000, 10) + "us"
	default:
		return strconv.FormatInt(t, 10) + "ns"
	}
}

// specKey is one key of the spec grammar and how it sets the plan.
type specKey struct {
	name string
	set  func(p *Plan, v string) error
}

// specKeys is the spec grammar: every key ParsePlan accepts, in the order its
// doc comment and its unknown-key error list them. A test checks the doc
// comment against it.
var specKeys = []specKey{
	{"drop", func(p *Plan, v string) (err error) { p.Drop, err = parseRate(v); return }},
	{"delay", func(p *Plan, v string) (err error) { p.Delay, err = parseRate(v); return }},
	{"jitter", func(p *Plan, v string) (err error) { p.Jitter, err = parseDur(v); return }},
	{"stall", func(p *Plan, v string) (err error) { p.Stall, err = parseDur(v); return }},
	{"stallp", func(p *Plan, v string) (err error) { p.StallP, err = parseRate(v); return }},
	{"atomicfail", func(p *Plan, v string) (err error) { p.AtomicFail, err = parseRate(v); return }},
	{"crash", func(p *Plan, v string) (err error) { p.Crash, err = parseRate(v); return }},
	{"crashrestart", func(p *Plan, v string) (err error) { p.CrashRestart, err = parseBool(v); return }},
	{"crashpoints", func(p *Plan, v string) (err error) { p.CrashPoints, err = parseSafePoints(v); return }},
	{"crashat", func(p *Plan, v string) error { return p.addCrashes(v, false) }},
	{"restartat", func(p *Plan, v string) error { return p.addCrashes(v, true) }},
	{"partition", func(p *Plan, v string) (err error) { p.Partition, err = parseRate(v); return }},
	{"partdur", func(p *Plan, v string) (err error) { p.PartitionDur, err = strconv.Atoi(v); return }},
	{"partcut", func(p *Plan, v string) (err error) {
		from, to, oneWay := strings.Cut(v, ">")
		p.PartitionOneWay, p.PartitionCut = oneWay, 0
		if !oneWay {
			p.PartitionCut, err = strconv.Atoi(v)
		} else if p.PartitionFrom, err = strconv.Atoi(strings.TrimSpace(from)); err == nil {
			p.PartitionTo, err = strconv.Atoi(strings.TrimSpace(to))
		}
		return
	}},
	{"cutat", (*Plan).addCuts},
	{"seed", func(p *Plan, v string) (err error) { p.Seed, err = strconv.ParseInt(v, 10, 64); return }},
}

// specKeyList renders the grammar's keys for the unknown-key error.
func specKeyList() string {
	names := make([]string, len(specKeys))
	for i, k := range specKeys {
		names[i] = k.name
	}
	return strings.Join(names, ", ")
}

// ParsePlan parses a chaos spec like
//
//	drop=0.01,stall=5us,stallp=0.02,seed=42
//
// Keys: drop, delay, jitter, stall, stallp, atomicfail, crash, crashrestart,
// crashpoints, crashat, restartat, partition, partdur, partcut, cutat, seed.
// Durations take an optional ns/us/ms/s suffix (bare numbers are virtual
// nanoseconds); crashpoints takes a '+'-joined safe-point list
// ("crashpoints=lock+flag"); partcut takes either a minority size
// ("partcut=2", a symmetric cut) or a directed pair ("partcut=a>b", a
// one-way cut severing only a's traffic toward b — Cygnus III). The three
// script keys take '+'-joined entries and add to the plan's scripts:
// crashat and restartat take node@episode ("crashat=1@2+4@6" crash-stops
// node 1 at episode 2 and node 4 at episode 6; restartat's nodes rejoin),
// cutat takes nodes@start:dur with the isolated nodes '.'-joined or a
// directed pair ("cutat=1.5@5:2+3>0@8:1"; see ScriptedCut.String). The seed
// defaults to 0; stall without stallp defaults stallp to the drop rate or
// 0.01, whichever is larger; delay without jitter defaults jitter to 2.5 µs;
// partition without partdur/partcut defaults both to 1 (one-way cuts have
// no size to default).
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	stallPSet := false
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: %q is not key=value", kv)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		i := slices.IndexFunc(specKeys, func(e specKey) bool { return e.name == k })
		if i < 0 {
			return Plan{}, fmt.Errorf("fault: unknown key %q (want %s)", k, specKeyList())
		}
		if err := specKeys[i].set(&p, strings.TrimSpace(v)); err != nil {
			return Plan{}, fmt.Errorf("fault: bad value for %s: %v", k, err)
		}
		stallPSet = stallPSet || k == "stallp"
	}
	if p.Stall > 0 && !stallPSet {
		p.StallP = max(p.Drop, 0.01)
	}
	if p.Delay > 0 && p.Jitter == 0 {
		p.Jitter = 2_500 // one default remote latency of jitter
	}
	p.normalize()
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// addCrashes appends the entries of a crashat or restartat value. Each must
// be spelled as ScriptedCrash.String renders it, so the spec round-trips.
func (p *Plan) addCrashes(v string, restart bool) error {
	for _, e := range strings.Split(v, "+") {
		c := ScriptedCrash{Restart: restart}
		if _, err := fmt.Sscanf(e, "%d@%d", &c.Node, &c.Episode); err != nil || c.String() != e {
			return fmt.Errorf("scripted crash %q is not node@episode", e)
		}
		p.Crashes = append(p.Crashes, c)
	}
	return nil
}

// addCuts appends the entries of a cutat value. Each must be spelled as
// ScriptedCut.String renders it, which also rejects any field that does not
// parse: it stays zero, and zero renders as "0".
func (p *Plan) addCuts(v string) error {
	for _, e := range strings.Split(v, "+") {
		var c ScriptedCut
		what, when, _ := strings.Cut(e, "@")
		fmt.Sscanf(when, "%d:%d", &c.Start, &c.Dur)
		if c.OneWay = strings.Contains(what, ">"); c.OneWay {
			fmt.Sscanf(what, "%d>%d", &c.From, &c.To)
		} else {
			for _, n := range strings.Split(what, ".") {
				x, _ := strconv.Atoi(n)
				c.Nodes = append(c.Nodes, x)
			}
		}
		if c.String() != e {
			return fmt.Errorf("scripted cut %q is not nodes@start:dur", e)
		}
		p.Cuts = append(p.Cuts, c)
	}
	return nil
}

func parseBool(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "on", "true", "1", "yes":
		return true, nil
	case "off", "false", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("bad flag %q (want on/off)", s)
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	// The negated-range form also rejects NaN, which compares false both
	// ways and would otherwise slip through as a never-firing rate.
	if !(v >= 0 && v <= 1) {
		return 0, fmt.Errorf("rate %q outside [0,1]", s)
	}
	return v, nil
}

func parseDur(s string) (sim.Time, error) {
	mult := sim.Time(1)
	switch {
	case strings.HasSuffix(s, "ns"):
		s = strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"), strings.HasSuffix(s, "µs"):
		s, mult = strings.TrimSuffix(strings.TrimSuffix(s, "us"), "µs"), 1_000
	case strings.HasSuffix(s, "ms"):
		s, mult = strings.TrimSuffix(s, "ms"), 1_000_000
	case strings.HasSuffix(s, "s"):
		s, mult = strings.TrimSuffix(s, "s"), 1_000_000_000
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	// !(v >= 0) also rejects NaN; the upper bound keeps the float→int64
	// conversion below in range (an out-of-range conversion is
	// implementation-defined, not an error, in Go).
	if !(v >= 0) {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	if ns := v * float64(mult); ns >= float64(1)*(1<<62) {
		return 0, fmt.Errorf("duration %q overflows the virtual clock", s)
	}
	return sim.Time(v * float64(mult)), nil
}
