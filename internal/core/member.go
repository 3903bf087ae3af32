package core

// Cygnus: the member-aware rendezvous behind hierBarrier's global leg.
//
// A fixed-count barrier (sim.Barrier) would hang every survivor of a
// crash-stopped node forever. memberBarrier is instead an episode-keyed
// rendezvous over the *current membership*:
// each episode completes when every surviving representative has arrived AND
// every thread of every node dying this episode has checked in (restarting
// threads as observers, crash-stopping threads as final arrivals before they
// unwind). Membership mutations — excision, directory dead-marking, rejoin —
// happen exactly once per episode, at completion, under the barrier lock,
// while every live thread in the cluster is parked. That single serialization
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
// restart rendezvous, see observe).

import (
	"slices"
	"sync"

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

type epState struct {
	arrived  int      // surviving representatives that have arrived
	observed int      // threads of restarting nodes parked for this episode
	stopped  int      // threads of crash-stopping nodes that have checked in
	parted   int      // threads of partition-isolated nodes parked for this episode
	maxT     sim.Time // latest arrival clock seen
	or       bool     // OR-combined reset vote
	expected int      // sub=1 only: arrivals required (survivor count at sub=0)

	complete bool
	release  sim.Time
	recov    sim.Time // failure-detection tail folded into release (reported as recovery)
	orOut    bool
}

// memberBarrier is hierBarrier's global rendezvous. Its episode records live
// from an episode's first arrival to the completion of the next episode (see
// maybeComplete), so a run of any length holds a few of them.
type memberBarrier struct {
	c     *Cluster
	det   *health.Detector
	cost  sim.Time // global rendezvous exit cost
	tpn   int
	armed bool // crashes or partitions can occur: representatives publish heartbeats

	mu      sync.Mutex
	q       sim.WaitQueue // threads parked until their episode completes
	walk    *health.Walk  // membership view; stands past the highest fully-completed sub=0 episode
	eps     map[epKey]*epState
	crashed map[crashKey]crashCheckIns
}

func newMemberBarrier(c *Cluster, tpn int, cost sim.Time) *memberBarrier {
	m := &memberBarrier{
		c:       c,
		det:     c.Health,
		cost:    cost,
		tpn:     tpn,
		armed:   c.Health.Armed(),
		walk:    c.Health.NewWalk(),
		eps:     map[epKey]*epState{},
		crashed: map[crashKey]crashCheckIns{},
	}
	// Bootstrap: if a partition already covers episode 1 there is no prior
	// episode completion to install it, so the cut goes up at launch
	// (RunSeeded builds the barrier single-threaded, before any thread
	// starts, and ResetVirtualState has just cleared the previous cut).
	if cut := m.det.CutAt(1); len(cut.Iso) > 0 {
		m.installCut(cut)
		for _, n := range cut.Iso {
			m.det.Suspect(n, 0, 1)
		}
	}
	return m
}

// installCut raises the fabric cut: a directed one-way sever for an
// asymmetric cut, a minority mask otherwise.
func (m *memberBarrier) installCut(cut fault.Cut) {
	if cut.OneWay {
		m.c.Fab.SetOneWayCut(cut.From, cut.To)
		return
	}
	mask := make([]bool, m.c.Cfg.Nodes)
	for _, n := range cut.Iso {
		mask[n] = true
	}
	m.c.Fab.SetCut(mask)
}

func (m *memberBarrier) state(k epKey) *epState {
	st, ok := m.eps[k]
	if !ok {
		st = &epState{}
		m.eps[k] = st
	}
	return st
}

// leaderAt returns the lowest member that survives episode ep on the
// majority side of any active cut. The leader takes over node 0's duties
// (decay vote, directory reset) once node 0 dies or is isolated.
func (m *memberBarrier) leaderAt(ep int64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.walk.Members() {
		if m.det.Fate(n, ep) == health.Lives {
			return n
		}
	}
	return -1
}

// expectations returns, for episode ep over the current membership, the
// number of surviving representatives, restart observers, crash-stop
// check-ins and partition observers required for completion. Caller holds
// mu.
func (m *memberBarrier) expectations(ep int64) (arrive, observe, stop, parted int) {
	for _, n := range m.walk.Members() {
		switch m.det.Fate(n, ep) {
		case health.Restarts:
			observe += m.tpn
		case health.Stops:
			stop += m.tpn
		case health.Parked:
			parted += m.tpn
		default:
			arrive++
		}
	}
	return arrive, observe, stop, parted
}

// crashPoint is every thread's episode entry. It returns true when the
// thread's node dies-and-restarts or is partition-isolated this episode
// (the caller skips the episode body); it panics with health.CrashSignal
// for a crash-stop; it returns false for a live, connected thread.
func (m *memberBarrier) crashPoint(t *Thread, ep int64) bool {
	switch m.det.Fate(t.Node, ep) {
	case health.Parked:
		// Minority side of the cut: alive but unreachable. Park until
		// the majority completes the episode (checked before the Alive
		// test — an isolated node is Partitioned, not dead).
		m.observePartition(t.P, ep)
		return true
	case health.Restarts:
		m.killCheckIn(t, ep, probe.CrashAtBarrier)
		m.observe(t.P, ep)
		return true
	case health.Stops:
		m.stop(t, ep, probe.CrashAtBarrier) // unwinds
	}
	if !m.det.Alive(t.Node) {
		// Killed out-of-band (scripted mid-episode kill in tests).
		panic(health.CrashSignal{Node: t.Node, Episode: ep})
	}
	return false
}

// stop delivers a crash-stop verdict: the thread checks in so the episode
// can complete without it, then unwinds.
func (m *memberBarrier) stop(t *Thread, ep int64, kind int64) {
	m.killCheckIn(t, ep, kind)
	m.mu.Lock()
	st := m.state(epKey{ep, 0})
	st.stopped++
	m.maybeComplete(ep, st)
	m.mu.Unlock()
	panic(health.CrashSignal{Node: t.Node, Episode: ep})
}

// killCheckIn counts this thread's crash check-in for episode ep. The
// node's last checking thread kills the node — tagging the crash with the
// safe-point kind that delivered its own check-in — and performs the
// volatile-state wipe. The death is stamped with the latest of the
// node's check-in clocks — a function of the seeded run, where the clock of
// whichever sibling the host happened to run first is not.
func (m *memberBarrier) killCheckIn(t *Thread, ep int64, kind int64) {
	// The page cache is shared by the node's threads, so the wipe waits for
	// the node's last thread: until then a sibling may still be running its
	// epoch tail, and yanking lines under it would make cache hit/miss
	// sequences depend on the host schedule.
	m.mu.Lock()
	ck := crashKey{ep, t.Node}
	in := m.crashed[ck]
	in.n++
	if now := t.P.Now(); now > in.at {
		in.at = now
	}
	m.crashed[ck] = in
	m.mu.Unlock()
	if in.n == m.tpn {
		m.det.Kill(t.Node, in.at, ep, kind)
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
func (m *memberBarrier) safePoint(t *Thread, pt fault.SafePoint) {
	if !m.det.ArmsPoint(pt) {
		return
	}
	ep := t.SyncEpoch + 1 // the episode the current interval ends at
	if m.det.Fate(t.Node, ep) != health.Stops {
		return
	}
	kind := probe.CrashAtLock
	if pt == fault.SafeFlag {
		kind = probe.CrashAtFlag
	}
	m.stop(t, ep, kind)
}

// rendezvous is the surviving representatives' global barrier for episode ep.
// sub=0 OR-combines the reset vote; sub=1 is the post-reset rendezvous.
func (m *memberBarrier) rendezvous(p *sim.Proc, ep int64, sub int, vote bool) bool {
	m.mu.Lock()
	st := m.state(epKey{ep, sub})
	if p.Now() > st.maxT {
		st.maxT = p.Now()
	}
	if vote {
		st.or = true
	}
	st.arrived++
	if sub == 0 {
		m.maybeComplete(ep, st)
	} else if st.arrived == st.expected {
		st.release = st.maxT + m.cost
		st.complete = true
		m.q.WakeAll(0)
	}
	for !st.complete {
		m.q.Park(&m.mu, 0)
	}
	rel, out, recov := st.release, st.orOut, st.recov
	m.mu.Unlock()
	p.AdvanceTo(rel)
	if recov > 0 {
		// The detection tail of a crash episode is recovery time, caused by
		// the episode's kills on the corpses' lanes.
		m.c.Obs.Sync(p, rel-recov, probe.CrashWait, uint64(ep), ep, 0)
	}
	return out
}

// observe is the restart rendezvous (Cygnus III): it parks a restarting
// node's thread until the episode's member-barrier completion point, then
// resynchronizes its clock past the reboot downtime. The node's volatile
// state was already wiped at its kill check-in — before this, its first
// safe point — and the completion point re-clears its directory cache
// while every live thread is parked, so the rejoiner's first touches start
// from virgin node-local state.
//
// When the surviving representatives voted a classification reset for the
// episode (orOut), admission is deferred to the *post-reset* rendezvous:
// a rejoiner released at the sub=0 completion would re-register its first
// touches concurrently with the leader's directory wipe, a host-time race
// that made the LU planner reject restart plans before this rendezvous
// existed. Parking through epKey{ep, 1} serializes the rejoin after the
// wipe, so crashrestart= composes with reset-emitting repair planners.
func (m *memberBarrier) observe(p *sim.Proc, ep int64) {
	m.mu.Lock()
	st := m.state(epKey{ep, 0})
	if p.Now() > st.maxT {
		// Fold the observer's clock into the release like observePartition
		// does: if every member of an episode dies-and-restarts, there are
		// no arrivals and the release would otherwise predate the deaths.
		st.maxT = p.Now()
	}
	st.observed++
	m.maybeComplete(ep, st)
	for !st.complete {
		m.q.Park(&m.mu, 0)
	}
	rel := st.release
	wake := rel + fault.Timeout
	if st.orOut {
		st1 := m.state(epKey{ep, 1})
		for !st1.complete {
			m.q.Park(&m.mu, 0)
		}
		if st1.release > wake {
			wake = st1.release
		}
	}
	m.mu.Unlock()
	p.AdvanceTo(wake)
	// Reboot downtime of a restarting node is pure recovery time.
	m.c.Obs.Sync(p, rel, probe.CrashWait, uint64(ep), ep, 0)
}

// observePartition parks an isolated node's thread until the majority
// completes the episode, then resynchronizes its clock to the release. No
// reboot penalty and no volatile-state wipe: the node never died, its
// caches and write buffer are intact.
func (m *memberBarrier) observePartition(p *sim.Proc, ep int64) {
	m.mu.Lock()
	st := m.state(epKey{ep, 0})
	if p.Now() > st.maxT {
		st.maxT = p.Now()
	}
	st.parted++
	m.maybeComplete(ep, st)
	for !st.complete {
		m.q.Park(&m.mu, 0)
	}
	rel, recov := st.release, st.recov
	m.mu.Unlock()
	p.AdvanceTo(rel)
	if recov > 0 {
		// The minority waits out the same detection tail as the survivors:
		// recovery time on their lanes too.
		m.c.Obs.Since(p, rel-recov, probe.CutWait, ep, 0)
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
func (m *memberBarrier) maybeComplete(ep int64, st *epState) {
	if st.complete || ep != m.walk.Episode()+1 {
		return
	}
	arrive, observe, stop, parted := m.expectations(ep)
	if st.arrived != arrive || st.observed != observe || st.stopped != stop || st.parted != parted {
		return
	}
	iso := m.walk.Parked()
	deaths, left := m.walk.Step() // the view now stands past ep
	if arrive == 0 {
		// Nobody survives to time the release, so the dying time it
		// themselves: an excision must not be stamped before its own crash.
		for _, dn := range deaths {
			st.maxT = max(st.maxT, m.crashed[crashKey{ep, dn}].at)
		}
	}
	release := st.maxT + m.cost
	if len(deaths) > 0 || len(iso) > 0 {
		// Survivors wait out one failure-detection timeout before they
		// reconfigure around the dead or the unreachable.
		st.recov = fault.Timeout
		release += st.recov
	}
	for _, dn := range deaths {
		m.det.Excise(dn, release, ep)
		m.c.Dir.SetDead(dn)
		// Every survivor is parked here, so wiping the dead node's
		// directory cache cannot race an in-flight Notify.
		m.c.Dir.ClearCache(dn)
		if !slices.Contains(left, dn) {
			m.det.Rejoin(dn, release, ep)
			m.c.Dir.ClearDeadBit(dn)
		}
	}
	// Partition transitions for the next episode: heal members whose cut
	// clears, suspect members newly isolated, and swap the fabric cut —
	// all while everyone is parked, so episode ep+1 begins with a
	// deterministic reachability view.
	next := m.walk.Parked()
	for _, n := range iso {
		if !slices.Contains(next, n) {
			m.det.Heal(n, release, ep)
		}
	}
	for _, n := range next {
		m.det.Suspect(n, release, ep+1)
	}
	if len(next) > 0 {
		if c := m.det.CutAt(ep + 1); c.OneWay {
			m.installCut(c)
		} else {
			// Mask only current members: a dead node's home memory stays
			// remotely readable across any cut.
			m.installCut(fault.Cut{Iso: next})
		}
	} else if len(iso) > 0 {
		m.c.Fab.ClearCut()
	}
	st.release = release
	st.orOut = st.or
	st.complete = true
	// Pre-size the post-reset rendezvous for the survivors of this episode.
	m.state(epKey{ep, 1}).expected = st.arrived
	// Nobody reads episode ep-1's records any more: each thread that could —
	// a survivor at either rendezvous, a restart observer waiting for the
	// post-reset one — has since arrived at or checked in for episode ep,
	// which completion required.
	delete(m.eps, epKey{ep - 1, 0})
	delete(m.eps, epKey{ep - 1, 1})
	for _, dn := range deaths {
		delete(m.crashed, crashKey{ep, dn}) // every check-in preceded completion
	}
	m.q.WakeAll(0)
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
func (m *memberBarrier) heartbeat(t *Thread, ep int64) {
	if !m.armed {
		return
	}
	home := (t.Node + 1) % m.det.Nodes()
	if home != t.Node && !m.c.Fab.Severed(t.Node, home) {
		key := hbKeyBase | uint64(t.Node)<<32 | uint64(ep)&0xffffffff
		v := m.c.Fab.FI.Draw(t.Node, fault.ClassPost, home, key, 0)
		t.P.Advance(m.c.Fab.P.PostOverhead + v.Delay)
	}
	m.det.Heartbeat(t.Node)
}

// Members returns the barrier's current membership view in ascending order.
func (m *memberBarrier) Members() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.walk.Members())
}
