// Package probe is the simulator's one observability vocabulary. Every
// protocol action has exactly one issuer, so every observable fact has one
// place where it becomes true; there it is emitted once, as one typed Event,
// into the cluster's Spine, which fans it out to the sinks the cluster was
// built with (core.Config.Observers). The tracer (package trace), Pictor
// (package span) and Argoscope (package metrics) are such sinks, and each owns
// its projection of the stream: which kinds it keeps and what it makes of
// them. The protocol layers import this package and none of those.
//
// A layer holds one *Spine that is nil when nothing is attached, and an
// emission site is one call behind one nil check: detached runs build no
// event and stay bit-identical. The always-on stats counters are not probes
// (the replay fingerprints read them) and do not pass through here.
package probe

import (
	"fmt"

	"argo/internal/sim"
)

// Kind names a fact. The comment on each kind says what the Event fields
// beyond Node, Tid and T carry; a fact that took virtual time has Start < T.
type Kind uint8

// Kinds, grouped by the layer that emits them.
const (
	// Carina, about one page (Page); Paged reports these.
	ReadMiss        Kind = iota // page not resident (a write-allocate miss is one too)
	WriteMiss                   // first write to a clean page: twin, writer registration
	LineFetch                   // a line refill completed; Page is its base page, Arg the pages fetched
	Writeback                   // a downgrade reached home; Arg is the bytes sent
	Checkpoint                  // naive-P/S checkpoint of a modified private page
	Invalidate                  // dropped at an SI fence
	Keep                        // retained across an SI fence by classification
	Notify                      // classification change pushed to node Arg
	ClassTransition             // Pyxis step; Arg is a Class* code
	WBRetry                     // a posted writeback was lost; Arg is the reissue count so far
	Evict                       // a resident page displaced by a line refill

	// Carina, about a fence or a thread.
	SIFence // [Start, T); Arg pages invalidated, Aux pages kept
	SDFence // [Start, T); Arg pages downgraded, Aux write-buffer entries when it began
	WBBurst // a fence posts its downgrades; Arg pages, Aux distinct homes
	Hits    // Arg page-cache hits counted since the thread's last publication
	WBDrain // the node's write buffer was cleared; Arg entries dropped

	// Cygnus membership (package health); Node is the subject, Key the barrier
	// episode, Arg the node again.
	Crash      // Aux is the CrashAt* safe point that delivered it
	Excise     // the view dropped a dead node
	Rejoin     // a restarted node was readmitted
	Suspect    // a partitioned node became unreachable
	Heal       // a partitioned node was readmitted
	Heartbeat  // Node published its liveness counter
	Membership // the view after a transition or reset; Arg epoch, Aux live nodes

	// Fabric, on the issuing thread's lane.
	NIC         // [Start, T) occupancy, queueing included, at node Arg's NIC
	OpRead      // [Start, T) issue to completion of a remote read; Arg home
	OpWrite     // synchronous remote write; Arg home
	OpPost      // posted write; Arg home
	OpFetch     // line fetch; Arg the line's base page
	OpAtomic    // remote atomic; Arg home
	OpPostBurst // home-grouped posted-write burst; Arg items delivered
	OpRegBurst  // home-grouped registration burst; Arg items that took effect
	Backoff     // [Start, T) capped exponential wait before a reissue; Arg attempt
	OpLost      // [Start, T) detection timeout of a dropped operation; Arg its fault.Class
	Retry       // reissues not caused by a drop seen here; Arg fault.Class, Aux how many
	Fault       // a fault was injected; Arg is a Fault* code
	Recovered   // [Start, T) first issue to success of an operation that was reissued; Arg fault.Class

	// Locks; Key is the lock's ticket-word key unless stated.
	LockNew       // a fenced DSM lock was built; Arg is its Lock* algorithm
	LockRetries   // Arg lock-word reissues under faults during one acquire or release
	LockExcision  // the grantee swung the lock word past dead holder Arg
	LeaseExpired  // holder Node lost its lease at T (crash or partition); Arg the node
	TicketWait    // [Start, T) wait ended by the previous holder's release; Arg the key
	TicketRecover // [Start, T) wait ended by an expired lease; Arg the key
	TicketRelease // the grant word moved on
	LockAcquire   // [Start, T) call to critical-section entry, fence included; Arg the Lock* algorithm, Aux ns until the lock word was owned
	LockRelease   // [Start, T) critical section and release fence; Arg 1 for a node-local handover, Aux 1 for a remote one
	Delegate      // a section was enqueued at T; Key names the queue entry
	DelegateRun   // the helper starts entry Key
	DelegateDone  // the helper finished entry Key; Aux is the lock's key
	DelegateWait  // [Start, T) delegator's wait for entry Key; Arg the key
	HQDLBatch     // a helper closed its batch; Arg sections executed

	// Vela barriers; Key is the rendezvous (instance, point, episode). A Depart
	// (its Arrive's kind + 1) is [Start, T) from the thread's own arrival, Arg the episode.
	ArriveLocal
	DepartLocal
	ArriveGlobal
	DepartGlobal
	ArriveFinal
	DepartFinal
	BarrierRep     // [Start, T) a representative's SD, rendezvous and SI; Arg 1 if it counted the episode, Aux 1 if it reset the classification
	BarrierEpisode // [Start, T) one thread's whole episode; Arg ns spent waiting at rendezvous
	CrashWait      // [Start, T) detection or reboot time caused by the crashes of episode Key; Arg the episode
	CutWait        // [Start, T) detection time a partitioned node waits out; Arg the episode

	// Core.
	RunEnd // a launch returned; T is its makespan

	NumKinds
)

var kindNames = [NumKinds]string{
	"read-miss", "write-miss", "line-fetch", "writeback", "checkpoint", "invalidate",
	"keep", "notify", "class-transition", "wb-retry", "evict",
	"si-fence", "sd-fence", "wb-burst", "hits", "wb-drain",
	"crash", "excise", "rejoin", "suspect", "heal", "heartbeat", "membership",
	"nic", "op-read", "op-write", "op-post", "op-fetch", "op-atomic", "op-post-burst",
	"op-reg-burst", "backoff", "op-lost", "retry", "fault", "recovered",
	"lock-new", "lock-retries", "lock-excision", "lease-expired", "ticket-wait",
	"ticket-recover", "ticket-release", "lock-acquire", "lock-release", "delegate",
	"delegate-run", "delegate-done", "delegate-wait", "hqdl-batch",
	"arrive-local", "depart-local", "arrive-global", "depart-global", "arrive-final",
	"depart-final", "barrier-rep", "barrier-episode", "crash-wait", "cut-wait",
	"run-end",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Paged reports whether events of kind k are about one page (Event.Page).
func (k Kind) Paged() bool { return k <= Evict }

// Arg codes of ClassTransition: the Pyxis classification step a page took.
const (
	ClassNWtoSW int64 = 1 // first writer: not-written → single-writer
	ClassSWtoMW int64 = 2 // second writer: single-writer → multiple-writer
	ClassPtoS   int64 = 3 // second reader: private → shared
)

// Aux codes of Crash: the safe point where the verdict fired.
const (
	CrashAtBarrier int64 = iota // barrier entry (always armed)
	CrashAtLock                 // ticket-lock acquire/release (crashpoints=lock)
	CrashAtFlag                 // flag wait/signal (crashpoints=flag)
)

// Arg codes of Fault.
const (
	FaultDrop int64 = iota
	FaultDelay
	FaultStall
	FaultAtomicFail
)

// Arg codes of LockNew and LockAcquire: the fenced lock algorithms.
const (
	LockMutex int64 = iota
	LockCohort
	LockHQDL
)

// Event is one fact: flat, passed by value, never retained by the emitter.
type Event struct {
	Kind  Kind
	Node  int
	Tid   int    // TidOf the observing hardware thread; 0 where there is none
	Start int64  // virtual ns; equal to T for an instant
	T     int64  // virtual ns at which the fact became true
	Page  int    // Paged kinds only
	Key   uint64 // identity of a synchronization object or causal edge
	Arg   int64
	Aux   int64 // the second number where one fact feeds two series
}

// Dur is the virtual time the fact took (0 for an instant).
func (e Event) Dur() int64 { return e.T - e.Start }

// Order places e among the events of a run: T, Node, Tid, Kind, Key, Page,
// Start, Arg, Aux.
func (e Event) Order() Order {
	return Order{e.T, int64(e.Node), int64(e.Tid), int64(e.Kind), int64(e.Key), int64(e.Page), e.Start, e.Arg, e.Aux}
}

// TidOf packs a (socket, core) coordinate into a stable per-node track id:
// a thread's lane in Pictor and its track in timeline exports.
func TidOf(socket, core int) int { return socket<<16 | core&0xffff }

// DecodeTid splits a TidOf-packed track id back into (socket, core).
func DecodeTid(tid int) (socket, core int) { return tid >> 16, tid & 0xffff }

// Sink receives every event of the clusters it is attached to, from many
// goroutines at once.
type Sink interface{ Observe(Event) }

// Spine fans events out to a cluster's sinks.
type Spine struct{ sinks []Sink }

// NewSpine returns the fan-out over sinks, or nil when there are none — the
// detached state every emission site checks for.
func NewSpine(sinks []Sink) *Spine {
	if len(sinks) == 0 {
		return nil
	}
	return &Spine{sinks: append([]Sink(nil), sinks...)}
}

// Emit hands e to every sink. s must not be nil: a site that builds its own
// Event guards it with the nil check itself.
func (s *Spine) Emit(e Event) {
	for _, k := range s.sinks {
		k.Observe(e)
	}
}

// Page emits an instant fact about page, observed by p now. Like Since and
// Sync it is the whole emission site: a nil spine returns at once.
func (s *Spine) Page(p *sim.Proc, k Kind, page int, arg int64) {
	if s != nil {
		s.by(p, p.Now(), k, page, 0, arg, 0)
	}
}

// Since emits a fact that took p from t0 until now (an instant if t0 is now).
func (s *Spine) Since(p *sim.Proc, t0 sim.Time, k Kind, arg, aux int64) {
	if s != nil {
		s.by(p, t0, k, 0, 0, arg, aux)
	}
}

// Sync is Since for a fact about the synchronization object or edge key.
func (s *Spine) Sync(p *sim.Proc, t0 sim.Time, k Kind, key uint64, arg, aux int64) {
	if s != nil {
		s.by(p, t0, k, 0, key, arg, aux)
	}
}

func (s *Spine) by(p *sim.Proc, t0 sim.Time, k Kind, page int, key uint64, arg, aux int64) {
	s.Emit(Event{Kind: k, Node: p.Node, Tid: TidOf(p.Socket, p.Core), Start: t0, T: p.Now(), Page: page, Key: key, Arg: arg, Aux: aux})
}
