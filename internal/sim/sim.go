// Package sim is the virtual-time engine underneath the Argo DSM simulator.
//
// The simulator executes programs with real goroutines over real memory, but
// measures them on a virtual clock: every simulated hardware thread carries a
// Proc whose clock advances by modeled costs (compute, cache hits, network
// round trips). Shared hardware resources — NICs, directory entries, lock
// words — are modeled as Resources that serialize access in virtual time:
// acquiring a resource advances the caller's clock to at least the time the
// resource became free, which is how queueing delay appears in results
// without any discrete-event scheduler.
//
// The design separates functional synchronization (real mutexes keep the
// protocol race-free) from temporal modeling (virtual clocks max-combine across
// synchronization points): functional results are exact, and virtual timings
// follow the order of lock acquisitions, as on real hardware. That order is set
// at one seam: a simulated thread offers the host the turn only at Proc.Point,
// and sleeps until another thread acts only on a Waiter, as WaitQueue.Park does.
package sim

import (
	"fmt"
	"sync"
)

// Time is virtual time in nanoseconds.
type Time = int64

// Proc is one simulated hardware thread: a (node, socket, core) coordinate
// plus a virtual clock. A Proc must only be used by one goroutine at a time.
type Proc struct {
	Node   int // node (machine) index
	Socket int // NUMA domain within the node
	Core   int // core within the socket

	now Time

	// Hits is a hot-path counter (page-cache hits) kept thread-local to
	// avoid cache-line contention; aggregate it at the end of a run.
	Hits int64
	// hitsTaken is the part of Hits TakeHits has already handed out.
	hitsTaken int64
}

// Now returns the Proc's current virtual time.
func (p *Proc) Now() Time { return p.now }

// Advance moves the clock forward by d nanoseconds. Negative d panics:
// virtual time never runs backwards.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %d", d))
	}
	p.now += d
}

// TakeHits returns the growth of Hits since the previous call, for a caller
// that publishes hit counts in batches instead of per access.
func (p *Proc) TakeHits() int64 {
	d := p.Hits - p.hitsTaken
	p.hitsTaken = p.Hits
	return d
}

// AdvanceTo moves the clock to t if t is later than now (max-combining).
func (p *Proc) AdvanceTo(t Time) {
	if t > p.now {
		p.now = t
	}
}

// SetNow forcibly sets the clock. Intended for harnesses that reuse Procs
// across measurement phases.
func (p *Proc) SetNow(t Time) { p.now = t }

// Topology describes the simulated machine room: Nodes machines, each with
// Sockets NUMA domains of CoresPerSocket cores.
type Topology struct {
	Nodes          int
	Sockets        int
	CoresPerSocket int
}

// coresPerNode returns the number of cores in one node.
func (t Topology) coresPerNode() int { return t.Sockets * t.CoresPerSocket }

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.Sockets <= 0 || t.CoresPerSocket <= 0 {
		return fmt.Errorf("sim: invalid topology %+v", t)
	}
	if t.Nodes > 128 {
		return fmt.Errorf("sim: at most 128 nodes supported (directory full-map width), got %d", t.Nodes)
	}
	return nil
}

// NewProc places local thread lt of node n onto a core, filling sockets
// round-robin so that consecutive local threads land on different sockets
// only after a socket is full (compact placement, like taskset on the
// paper's Opteron nodes).
func (t Topology) NewProc(n, lt int) *Proc {
	core := lt % t.coresPerNode()
	return &Proc{
		Node:   n,
		Socket: core / t.CoresPerSocket,
		Core:   core % t.CoresPerSocket,
	}
}

// Resource models a hardware resource that serves one request at a time in
// virtual time: a NIC DMA engine, a directory entry, a lock word. Occupy
// serializes the caller behind previous occupants and charges the service
// time.
//
// Because the simulator executes threads with real concurrency, requests
// arrive in real execution order, which is not virtual-time order. A naive
// single-server timeline would let a request with a late virtual arrival
// poison the resource for requests with earlier clocks (they would queue
// behind the future). Resource therefore implements a work-conserving
// server with backfill: a request arriving after the server's horizon opens
// an idle gap ("slack"); a request arriving before the horizon is served
// from accumulated slack when possible — only when the slack is exhausted
// (genuine saturation) does it queue behind the horizon. Total busy time
// never exceeds the timeline, and hot spots still congest.
type Resource struct {
	mu    sync.Mutex
	free  Time // horizon: end of the last scheduled busy period
	slack Time // idle time before the horizon available for backfill
}

// maxSlack bounds the backfill window: it should cover the virtual-clock
// skew between concurrently executing threads (so out-of-order arrivals do
// not fabricate queueing) without letting a long-idle server absorb an
// arbitrarily large burst at one instant.
const maxSlack Time = 200_000

// Occupy reserves the resource for service nanoseconds starting no earlier
// than the caller's current virtual time, advances the caller's clock to the
// completion time, and returns that time.
func (r *Resource) Occupy(p *Proc, service Time) Time {
	return r.OccupyAt(p, p.now, service)
}

// OccupyAt is like Occupy but for a request that arrives at time at (which
// may be later than the caller's clock, e.g. after a network hop).
func (r *Resource) OccupyAt(p *Proc, at, service Time) Time {
	r.mu.Lock()
	var done Time
	switch {
	case at >= r.free:
		// The server is idle at the arrival: the gap becomes slack.
		r.slack += at - r.free
		if r.slack > maxSlack {
			r.slack = maxSlack
		}
		done = at + service
		r.free = done
	case r.slack >= service:
		// Out-of-order arrival, but enough idle capacity existed before
		// the horizon: backfill without delaying anything.
		r.slack -= service
		done = at + service
	default:
		// Genuine saturation: queue behind the horizon for the remainder.
		done = r.free + (service - r.slack)
		r.slack = 0
		r.free = done
	}
	r.mu.Unlock()
	p.AdvanceTo(done)
	return done
}

// FreeAt returns the server's current busy horizon. Mostly for tests.
func (r *Resource) FreeAt() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.free
}

// Reset clears the resource's virtual occupancy.
func (r *Resource) Reset() {
	r.mu.Lock()
	r.free = 0
	r.slack = 0
	r.mu.Unlock()
}

// Barrier is a reusable barrier that synchronizes both functionally (the
// goroutines really wait for each other) and in virtual time (everyone
// leaves at max(arrival times) + exit cost).
type Barrier struct {
	mu      sync.Mutex
	q       WaitQueue
	n       int
	arrived int
	maxT    Time
	release Time
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier participant count must be positive")
	}
	return &Barrier{n: n}
}

// Wait blocks until all n participants have called Wait, then releases all
// of them with their clocks set to max(arrival) + exitCost.
func (b *Barrier) Wait(p *Proc, exitCost Time) {
	b.mu.Lock()
	if p.now > b.maxT {
		b.maxT = p.now
	}
	b.arrived++
	if b.arrived == b.n {
		b.release = b.maxT + exitCost
		b.arrived = 0
		b.maxT = 0
		b.q.WakeAll(0)
	} else {
		b.q.Park(&b.mu, 0) // only this episode's completion wakes a parked thread
	}
	rel := b.release
	b.mu.Unlock()
	p.AdvanceTo(rel)
}

// Group runs one goroutine per Proc and blocks until all bodies return.
// It returns the maximum final virtual time across the group (the makespan).
type Group struct {
	procs []*Proc
}

// NewGroup wraps a set of Procs for SPMD launches.
func NewGroup(procs []*Proc) *Group { return &Group{procs: procs} }

// Run invokes body(i, procs[i]) concurrently for every proc and waits.
// It returns the latest final clock.
func (g *Group) Run(body func(i int, p *Proc)) Time {
	var wg sync.WaitGroup
	wg.Add(len(g.procs))
	for i, p := range g.procs {
		go func(i int, p *Proc) {
			defer wg.Done()
			body(i, p)
		}(i, p)
	}
	wg.Wait()
	return g.MaxNow()
}

// MaxNow returns the latest clock among the group's procs. Only meaningful
// after Run has returned.
func (g *Group) MaxNow() Time {
	var m Time
	for _, p := range g.procs {
		m = max(m, p.now)
	}
	return m
}
