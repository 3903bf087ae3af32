package core

// Cygnus: the member-aware rendezvous of hierBarrier's global leg.
//
// A fixed-count barrier (sim.Barrier) would hang every survivor of a
// crash-stopped node forever. The global leg is instead an episode-keyed
// rendezvous over the *current membership*: each episode completes when every
// surviving representative has arrived AND every thread of every node dying
// or cut off this episode has checked in (restarting and parked threads
// before they sit the episode out, crash-stopping threads before they
// unwind) — all of them at checkIn, the one count of the episode's arrivals.
// Membership mutations — excision, directory dead-marking, rejoin — happen
// exactly once per episode, at completion, under the barrier lock, while
// every live thread in the cluster is parked. That single serialization
// point is what keeps crash runs bit-exact across replays: no survivor can
// race the wipe of a dead node's directory cache, and the membership epoch
// history is a pure function of (seed, plan, program).
//
// It is the one global rendezvous, armed or not: in a run where nothing can
// crash or be cut off, every member arrives at every episode and the release
// is the latest arrival plus the exit cost, what a fixed-count barrier would
// give. Only heartbeats are kept to armed runs (see heartbeat).
//
// Timing model: a death adds one failure-detection timeout to the episode's
// release (survivors wait out the detector before reconfiguring), and a
// restarting node rejoins with its clock pushed a further timeout past the
// release (reboot downtime) — or at the post-reset rendezvous release,
// whichever is later, when the episode carries a classification reset (the
// restart rendezvous, see sitOut).

import (
	"slices"

	"argo/internal/fault"
	"argo/internal/health"
	"argo/internal/probe"
	"argo/internal/sim"
)

// hbKeyBase tags heartbeat publishes in the fabric's fault-identity space,
// well away from page and sync keys.
const hbKeyBase = uint64(1) << 62

type epKey struct {
	ep  int64
	sub int // 0 = main (OR-combining) rendezvous, 1 = post-reset rendezvous
}

type crashKey struct {
	ep   int64
	node int
}

// crashCheckIns is a dying node's crash check-in tally for one episode: how
// many of its threads have checked in, and the latest of their clocks.
type crashCheckIns struct {
	n  int
	at sim.Time
}

// epState is one rendezvous of one episode. At the main rendezvous (sub 0)
// in counts the check-ins by the checking thread's fate: one per surviving
// representative (health.Lives) and one per thread of a parked, restarting
// or stopping node.
type epState struct {
	in       [4]int   // check-ins, indexed by health.Fate
	maxT     sim.Time // latest clock of a non-stopping check-in
	or       bool     // OR-combined reset vote
	expected int      // sub=1 only: arrivals required (survivor count at sub=0)

	complete bool
	release  sim.Time
	recov    sim.Time // failure-detection tail folded into release (reported as recovery)
	orOut    bool
}

func (b *hierBarrier) state(k epKey) *epState {
	st, ok := b.eps[k]
	if !ok {
		st = &epState{}
		b.eps[k] = st
	}
	return st
}

// leaderAt returns the lowest member that survives episode ep on the
// majority side of any active cut. The leader takes over node 0's duties
// (decay vote, directory reset) once node 0 dies or is isolated.
func (b *hierBarrier) leaderAt(ep int64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, n := range b.walk.Members() {
		if b.c.Health.Fate(n, ep) == health.Lives {
			return n
		}
	}
	return -1
}

// expectations returns, for episode ep over the current membership, the
// check-ins its main rendezvous needs, by fate: one per surviving
// representative, and tpn for every parked, restarting or stopping member.
// Caller holds mu.
func (b *hierBarrier) expectations(ep int64) (want [4]int) {
	for _, n := range b.walk.Members() {
		if f := b.c.Health.Fate(n, ep); f == health.Lives {
			want[f]++
		} else {
			want[f] += b.tpn
		}
	}
	return want
}

// crashPoint is every thread's episode entry. It returns true when the
// thread's node dies-and-restarts or is partition-isolated this episode
// (the caller skips the episode body); it panics with health.CrashSignal
// for a crash-stop; it returns false for a live, connected thread.
func (b *hierBarrier) crashPoint(t *Thread, ep int64) bool {
	switch f := b.c.Health.Fate(t.Node, ep); f {
	case health.Restarts:
		b.killCheckIn(t, ep, probe.CrashAtBarrier)
		fallthrough
	case health.Parked:
		// A parked node is on the minority side of the cut: alive but
		// unreachable (checked before the Alive test — an isolated node is
		// Partitioned, not dead).
		b.sitOut(t.P, ep, f)
		return true
	case health.Stops:
		b.stop(t, ep, probe.CrashAtBarrier) // unwinds
	}
	if !b.c.Health.Alive(t.Node) {
		// Killed out-of-band (scripted mid-episode kill in tests).
		panic(health.CrashSignal{Node: t.Node, Episode: ep})
	}
	return false
}

// stop delivers a crash-stop verdict: the thread checks in so the episode
// can complete without it, then unwinds.
func (b *hierBarrier) stop(t *Thread, ep int64, kind int64) {
	b.killCheckIn(t, ep, kind)
	b.mu.Lock()
	b.checkIn(ep, health.Stops, t.P.Now())
	b.mu.Unlock()
	panic(health.CrashSignal{Node: t.Node, Episode: ep})
}

// killCheckIn counts this thread's crash check-in for episode ep. The
// node's last checking thread kills the node — tagging the crash with the
// safe-point kind that delivered its own check-in — and performs the
// volatile-state wipe. The death is stamped with the latest of the
// node's check-in clocks — a function of the seeded run, where the clock of
// whichever sibling the host happened to run first is not.
func (b *hierBarrier) killCheckIn(t *Thread, ep int64, kind int64) {
	// The page cache is shared by the node's threads, so the wipe waits for
	// the node's last thread: until then a sibling may still be running its
	// epoch tail, and yanking lines under it would make cache hit/miss
	// sequences depend on the host schedule.
	b.mu.Lock()
	ck := crashKey{ep, t.Node}
	in := b.crashed[ck]
	in.n++
	if now := t.P.Now(); now > in.at {
		in.at = now
	}
	b.crashed[ck] = in
	b.mu.Unlock()
	if in.n == b.tpn {
		b.c.Health.Kill(t.Node, in.at, ep, kind)
		t.Coh.CrashWipe()
	}
}

// safePoint delivers a pending crash verdict at a non-barrier safe point
// (lock acquire/release, flag wait/signal). The verdict is the same
// per-(node, episode) hash the barrier backstop would fire — the node that
// would die at barrier ep instead unwinds at its first armed sync op inside
// the preceding interval, losing the same undrained writes — so arming
// extra points never changes the crash schedule, only where each thread
// stops. Restarting nodes always wait for the barrier: there is nothing to
// resurrect an unwound goroutine mid-interval.
func (b *hierBarrier) safePoint(t *Thread, pt fault.SafePoint) {
	if !b.c.Health.ArmsPoint(pt) {
		return
	}
	ep := t.SyncEpoch + 1 // the episode the current interval ends at
	if b.c.Health.Fate(t.Node, ep) != health.Stops {
		return
	}
	kind := probe.CrashAtLock
	if pt == fault.SafeFlag {
		kind = probe.CrashAtFlag
	}
	b.stop(t, ep, kind)
}

// checkIn counts one arrival at episode ep's main rendezvous — a surviving
// representative's, or one thread's of a parked, restarting or stopping node
// — and completes the episode when it is the last one due. A stopping
// thread's clock does not time the release: its node's kill stamp does, and
// only when nobody survives (maybeComplete). Caller holds mu.
func (b *hierBarrier) checkIn(ep int64, f health.Fate, at sim.Time) *epState {
	st := b.state(epKey{ep, 0})
	if f != health.Stops {
		st.maxT = max(st.maxT, at)
	}
	st.in[f]++
	b.maybeComplete(ep, st)
	return st
}

// rendezvous is the surviving representatives' global barrier for episode ep.
// sub=0 OR-combines the reset vote; sub=1 is the post-reset rendezvous.
func (b *hierBarrier) rendezvous(p *sim.Proc, ep int64, sub int, vote bool) bool {
	b.mu.Lock()
	st := b.state(epKey{ep, sub})
	if vote {
		st.or = true
	}
	if sub == 0 {
		b.checkIn(ep, health.Lives, p.Now())
	} else {
		st.maxT = max(st.maxT, p.Now())
		st.in[health.Lives]++
		if st.in[health.Lives] == st.expected {
			st.release = st.maxT + b.cost
			st.complete = true
			b.q.WakeAll(0)
		}
	}
	for !st.complete {
		b.q.Park(&b.mu, 0)
	}
	rel, out, recov := st.release, st.orOut, st.recov
	b.mu.Unlock()
	p.AdvanceTo(rel)
	if recov > 0 {
		// The detection tail of a crash episode is recovery time, caused by
		// the episode's kills on the corpses' lanes.
		b.c.Obs.Sync(p, rel-recov, probe.CrashWait, uint64(ep), ep, 0)
	}
	return out
}

// sitOut is the episode of a thread whose node does not run it this time:
// it checks in, parks until the majority completes the episode, and moves
// its clock to the release.
//
// A parked node (cut off by a partition) pays no reboot penalty and no
// volatile-state wipe: it never died, its caches and write buffer are
// intact, and it waits out the same detection tail as the survivors.
//
// A restarting node (the Cygnus III restart rendezvous) resynchronizes its
// clock a further fault.Timeout past the release: reboot downtime. Its
// volatile state was already wiped at its kill check-in — before this, its
// first safe point — and the completion point re-clears its directory cache
// while every live thread is parked, so the rejoiner's first touches start
// from virgin node-local state. When the surviving representatives voted a
// classification reset for the episode (orOut), admission is deferred to the
// *post-reset* rendezvous: a rejoiner released at the sub=0 completion would
// re-register its first touches concurrently with the leader's directory
// wipe, a host-time race that made the LU planner reject restart plans
// before this rendezvous existed. Parking through epKey{ep, 1} serializes the
// rejoin after the wipe, so crashrestart= composes with reset-emitting
// repair planners.
func (b *hierBarrier) sitOut(p *sim.Proc, ep int64, f health.Fate) {
	b.mu.Lock()
	// The check-in's clock times the release too: if every member of an
	// episode restarts or is parked, there are no arrivals and the release
	// would otherwise predate them.
	st := b.checkIn(ep, f, p.Now())
	for !st.complete {
		b.q.Park(&b.mu, 0)
	}
	rel, recov, wake := st.release, st.recov, st.release
	if f == health.Restarts {
		wake += fault.Timeout
		if st.orOut {
			st1 := b.state(epKey{ep, 1})
			for !st1.complete {
				b.q.Park(&b.mu, 0)
			}
			wake = max(wake, st1.release)
		}
	}
	b.mu.Unlock()
	p.AdvanceTo(wake)
	switch {
	case f == health.Restarts:
		// Reboot downtime of a restarting node is pure recovery time.
		b.c.Obs.Sync(p, rel, probe.CrashWait, uint64(ep), ep, 0)
	case recov > 0:
		b.c.Obs.Since(p, rel-recov, probe.CutWait, ep, 0)
	}
}

// maybeComplete fires the episode's reconfiguration once every survivor has
// arrived and every dying or isolated thread has checked in. Caller holds
// mu.
//
// This is the single serialization point for heal-vs-excise decisions:
// deaths at ep are excised (or rejoined) exactly once, the cut for episode
// ep+1 is installed (with its minority suspected) or torn down (with its
// minority healed) exactly once, and every live thread in the cluster is
// parked while it happens — which is what keeps membership-epoch histories
// bit-identical across same-seed runs.
func (b *hierBarrier) maybeComplete(ep int64, st *epState) {
	if st.complete || ep != b.walk.Episode()+1 || st.in != b.expectations(ep) {
		return
	}
	det := b.c.Health
	iso := b.walk.Parked()
	deaths, left := b.walk.Step() // the view now stands past ep
	if st.in[health.Lives] == 0 {
		// Nobody survives to time the release, so the dying time it
		// themselves: an excision must not be stamped before its own crash.
		for _, dn := range deaths {
			st.maxT = max(st.maxT, b.crashed[crashKey{ep, dn}].at)
		}
	}
	release := st.maxT + b.cost
	if len(deaths) > 0 || len(iso) > 0 {
		// Survivors wait out one failure-detection timeout before they
		// reconfigure around the dead or the unreachable.
		st.recov = fault.Timeout
		release += st.recov
	}
	for _, dn := range deaths {
		det.Excise(dn, release, ep)
		b.c.Dir.SetDead(dn)
		// Every survivor is parked here, so wiping the dead node's
		// directory cache cannot race an in-flight Notify.
		b.c.Dir.ClearCache(dn)
		if !slices.Contains(left, dn) {
			det.Rejoin(dn, release, ep)
			b.c.Dir.ClearDeadBit(dn)
		}
	}
	// Partition transitions for the next episode: heal members whose cut
	// clears, suspect members newly isolated, and swap the fabric cut —
	// all while everyone is parked, so episode ep+1 begins with a
	// deterministic reachability view.
	next := b.walk.Parked()
	for _, n := range iso {
		if !slices.Contains(next, n) {
			det.Heal(n, release, ep)
		}
	}
	for _, n := range next {
		det.Suspect(n, release, ep+1)
	}
	if len(next) > 0 {
		cut := det.CutAt(ep + 1)
		if !cut.OneWay {
			// Mask only current members: a dead node's home memory stays
			// remotely readable across any cut.
			cut = fault.Cut{Iso: next}
		}
		b.c.Fab.SetCut(cut)
	} else if len(iso) > 0 {
		b.c.Fab.SetCut(fault.Cut{})
	}
	st.release = release
	st.orOut = st.or
	st.complete = true
	// Pre-size the post-reset rendezvous for the survivors of this episode.
	b.state(epKey{ep, 1}).expected = st.in[health.Lives]
	// Nobody reads episode ep-1's records any more: each thread that could —
	// a survivor at either rendezvous, a restart observer waiting for the
	// post-reset one — has since arrived at or checked in for episode ep,
	// which completion required.
	delete(b.eps, epKey{ep - 1, 0})
	delete(b.eps, epKey{ep - 1, 1})
	for _, dn := range deaths {
		delete(b.crashed, crashKey{ep, dn}) // every check-in preceded completion
	}
	b.q.WakeAll(0)
}

// heartbeat publishes the node's liveness counter toward its successor (a
// posted one-sided write, attempt 0; a dropped publish is a missed
// heartbeat, not an error) and bumps the detector's count — in an armed run
// only: where nothing can fail there is nothing to detect, and no publish to
// pay for.
//
// The publish deliberately does NOT occupy the successor's shared NIC
// resource — in the model, heartbeats ride a dedicated shallow QP that never
// contends with data traffic. This is load-bearing for replay: NIC occupancy
// is arbitrated in host arrival order, so a heartbeat landing on a NIC the
// schedule-independent workloads prove has exactly one client per phase
// would add a second, scheduling-ordered client and shift virtual time run
// to run. The issuer still pays the posting overhead, and the Corvus verdict
// (a pure hash of the heartbeat's identity) still decides whether it lands.
func (b *hierBarrier) heartbeat(t *Thread, ep int64) {
	if !b.armed {
		return
	}
	home := (t.Node + 1) % b.c.Health.Nodes()
	if home != t.Node && !b.c.Fab.Severed(t.Node, home) {
		key := hbKeyBase | uint64(t.Node)<<32 | uint64(ep)&0xffffffff
		v := b.c.Fab.FI.Draw(t.Node, fault.ClassPost, home, key, 0)
		t.P.Advance(b.c.Fab.P.PostOverhead + v.Delay)
	}
	b.c.Health.Heartbeat(t.Node)
}

// Members returns the barrier's current membership view in ascending order.
func (b *hierBarrier) Members() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.walk.Members())
}
