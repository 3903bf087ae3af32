package locks

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"argo/internal/core"
	"argo/internal/probe"
	"argo/internal/racetag"
	"argo/internal/sim"
)

// skipAllocTestUnderRace: the detector's own bookkeeping allocates.
func skipAllocTestUnderRace(t *testing.T) {
	t.Helper()
	if racetag.Enabled {
		t.Skip("allocation counts are measured without the race detector")
	}
}

// pair keeps a lock contended: every thread but 0 runs op in a loop until
// thread 0, which measures the same op, is done.
type pair struct{ stop atomic.Bool }

// partner runs the loop and reports true on every thread but 0.
func (s *pair) partner(id int, op func()) bool {
	if id == 0 {
		return false
	}
	for !s.stop.Load() {
		op()
	}
	return true
}

// steadyAllocs measures a warmed-up op on thread 0 of a pair:
// testing.AllocsPerRun counts the whole process, so an allocation on either
// side of a hand-off shows.
type steadyAllocs struct {
	pair
	allocs    float64
	delegated int64 // growth of the delegated-sections count while measuring
}

func (s *steadyAllocs) run(id int, op func(), delegated func() int64) {
	if s.partner(id, op) {
		return
	}
	for i := 0; i < 100; i++ {
		op()
	}
	s.delegated = -delegated()
	s.allocs = testing.AllocsPerRun(300, op)
	s.delegated += delegated()
	s.stop.Store(true)
}

func noDelegation() int64 { return 0 }

// passage is one lock passage of a two-thread ping-pong: the holder releases
// only once the other thread is parked behind it, so every acquisition after
// the first takes the parked path and every release hands over.
func (s *steadyAllocs) passage(lock, unlock func(), parked func() bool) func() {
	return func() {
		lock()
		for !parked() && !s.stop.Load() {
			runtime.Gosched()
		}
		unlock()
	}
}

func TestAllocFreeTicketHandoff(t *testing.T) {
	skipAllocTestUnderRace(t)
	c := dsmCluster(2)
	l := newGlobalTicketLock(c, 0)
	var s steadyAllocs
	c.Run(1, func(th *core.Thread) {
		s.run(th.Node, s.passage(func() { l.Lock(th) }, func() { l.Unlock(th) }, func() bool { return l.queued() == 1 }), noDelegation)
	})
	if s.allocs != 0 {
		t.Fatalf("a contended GlobalTicketLock hand-off allocated %.1f times, want 0", s.allocs)
	}
}

func TestAllocFreeFIFOHandoff(t *testing.T) {
	skipAllocTestUnderRace(t)
	l := newMCS(testFab())
	var s steadyAllocs
	sim.NewGroup(procs(sim.Topology{Nodes: 1, Sockets: 1, CoresPerSocket: 2}, 2)).Run(func(i int, p *sim.Proc) {
		s.run(i, s.passage(func() { l.Lock(p) }, func() { l.Unlock(p) }, l.c.hasWaiters), noDelegation)
	})
	if s.allocs != 0 {
		t.Fatalf("a contended fifoCore hand-off allocated %.1f times, want 0", s.allocs)
	}
}

// TestAllocFreeQDDelegation: detached, argument and waited delegations
// between two threads, sections built once outside the loop, allocate
// nothing once the ring and the completion slots exist. Each thread passes
// its operation count as the argument; its section must receive that count,
// which it still reads then: the thread waits on a later section before it
// counts again.
func TestAllocFreeQDDelegation(t *testing.T) {
	skipAllocTestUnderRace(t)
	f := testFab()
	l := NewQDLock(f)
	var s steadyAllocs
	var ops [2]int64
	var wrong atomic.Int64
	sim.NewGroup(procs(sim.Topology{Nodes: 1, Sockets: 1, CoresPerSocket: 2}, 2)).Run(func(i int, p *sim.Proc) {
		section := func(h *sim.Proc) { h.Advance(5) }
		withArg := func(h *sim.Proc, arg int64) {
			if arg != ops[i] {
				wrong.Add(1)
			}
		}
		s.run(i, func() {
			ops[i]++
			l.Delegate(p, section)
			l.DelegateArg(p, withArg, ops[i])
			l.DelegateWait(p, section)
		}, f.NodeStats(0).DelegatedSections.Load)
	})
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d DelegateArg sections received another argument than their delegator passed", n)
	}
	if s.allocs != 0 {
		t.Fatalf("steady-state QD delegation allocated %.1f times per Delegate+DelegateArg+DelegateWait, want 0", s.allocs)
	}
	if s.delegated == 0 {
		t.Fatal("no section was delegated while measuring: not the path under test")
	}
}

func TestAllocFreeHQDLDelegation(t *testing.T) {
	skipAllocTestUnderRace(t)
	c := dsmCluster(1)
	l := NewHQDLock(c)
	var s steadyAllocs
	var ops [2]int64
	var wrong atomic.Int64
	c.Run(2, func(th *core.Thread) {
		section := func(h *core.Thread) { h.P.Advance(5) }
		withArg := func(h *core.Thread, arg int64) {
			if arg != ops[th.Rank] {
				wrong.Add(1)
			}
		}
		s.run(th.Rank, func() {
			ops[th.Rank]++
			l.Delegate(th, section)
			l.DelegateArg(th, withArg, ops[th.Rank])
			l.DelegateWait(th, section)
		}, c.Fab.NodeStats(0).DelegatedSections.Load)
	})
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d DelegateArg sections received another argument than their delegator passed", n)
	}
	if s.allocs != 0 {
		t.Fatalf("steady-state HQDL delegation allocated %.1f times per Delegate+DelegateArg+DelegateWait, want 0", s.allocs)
	}
	if s.delegated == 0 {
		t.Fatal("no section was delegated while measuring: not the path under test")
	}
}

// TestDelegationRingWrapsAcrossOpenings: one lock per ring length, many
// openings each: every section runs exactly once and each thread's sections
// run in the order it issued them, whatever the ring's length and wherever
// its head stood when an opening began.
func TestDelegationRingWrapsAcrossOpenings(t *testing.T) {
	topo := sim.Topology{Nodes: 1, Sockets: 2, CoresPerSocket: 4}
	const workers, iters = 8, 300
	for _, limit := range []int{delegRing, 1, 3, 2} {
		l := newQDLock(testFab(), limit)
		var last [workers]int // serialized by the lock
		executed := 0
		sim.NewGroup(procs(topo, workers)).Run(func(i int, p *sim.Proc) {
			for k := 1; k <= iters; k++ {
				k := k
				section := func(h *sim.Proc) {
					if last[i] != k-1 {
						t.Errorf("ring %d: thread %d's section %d ran after its section %d", limit, i, k, last[i])
					}
					last[i] = k
					executed++
				}
				if k%3 == 0 {
					l.DelegateWait(p, section)
					if last[i] != k {
						t.Errorf("ring %d: DelegateWait returned before thread %d's section %d ran", limit, i, k)
					}
				} else {
					l.Delegate(p, section)
				}
			}
		})
		if executed != workers*iters {
			t.Fatalf("ring %d: %d sections ran, want %d", limit, executed, workers*iters)
		}
		if got := len(l.q.ring); got != limit || l.q.n != 0 || l.q.held {
			t.Fatalf("ring %d: ring of %d with %d queued, held=%v", limit, got, l.q.n, l.q.held)
		}
	}
}

// TestBatchLimitBoundsRingNotBatch pins what the ring's length bounds (see
// delegQueue): the sections queued at once and the dequeues before the
// close, so an opening whose ring is kept full runs own + len(ring) dequeued
// + len(ring) left at the close. The first helper's own section and every
// section it runs hold it until the detached delegators have refilled the
// ring.
func TestBatchLimitBoundsRingNotBatch(t *testing.T) {
	const limit, delegators = 4, 12
	l := newQDLock(testFab(), limit)
	topo := sim.Topology{Nodes: 1, Sockets: 4, CoresPerSocket: 4}
	h0 := topo.NewProc(0, 0)
	ringFullOrClosed := func() bool {
		l.q.mu.Lock()
		defer l.q.mu.Unlock()
		return !l.q.open || l.q.n == limit
	}
	onFirstHelper := 0
	section := func(h *sim.Proc) {
		if h == h0 {
			onFirstHelper++
			for !ringFullOrClosed() {
				runtime.Gosched()
			}
		}
	}
	var wg sync.WaitGroup
	l.Delegate(h0, func(h *sim.Proc) {
		for i := 1; i <= delegators; i++ {
			wg.Add(1)
			go func(p *sim.Proc) {
				defer wg.Done()
				l.Delegate(p, section)
			}(topo.NewProc(0, i))
		}
		section(h)
	})
	wg.Wait()
	if onFirstHelper != 2*limit+1 {
		t.Fatalf("the first opening ran %d sections, want 2·len(ring)+1 = %d", onFirstHelper, 2*limit+1)
	}
}

// TestOneEntryRingWakesParkedDelegators: on a one-entry ring, a delegator
// that finds the ring full is woken by the helper's next dequeue, and one
// that finds the queue closed is woken by release and becomes the next
// helper. Each waits inside a section the helper runs, so a missing wake
// shows as a wait that times out, not as a slow pass. Every section runs
// once, in enqueue order, and nobody is left parked.
func TestOneEntryRingWakesParkedDelegators(t *testing.T) {
	l := newQDLock(testFab(), 1)
	topo := sim.Topology{Nodes: 1, Sockets: 1, CoresPerSocket: 4}
	locked := func(f func() bool) func() bool {
		return func() bool {
			l.q.mu.Lock()
			defer l.q.mu.Unlock()
			return f()
		}
	}
	parked := locked(func() bool { return l.q.waiters.Len() == 1 })
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Errorf("timed out waiting for %s", what)
				return
			}
		}
	}
	var ran []string // appended by whoever is the helper
	var wg sync.WaitGroup
	delegate := func(name string, lt int, section func(h *sim.Proc)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Delegate(topo.NewProc(0, lt), func(h *sim.Proc) {
				ran = append(ran, name)
				section(h)
			})
		}()
	}
	l.Delegate(topo.NewProc(0, 0), func(h *sim.Proc) {
		ran = append(ran, "own")
		l.Delegate(topo.NewProc(0, 1), func(h *sim.Proc) { // fills the ring
			ran = append(ran, "full")
			// Dequeued while the ring is open: that dequeue woke the
			// parked delegator, whose section now fills the ring.
			waitFor("the full ring's delegator to be woken by the dequeue", locked(func() bool { return l.q.n == 1 }))
		})
		delegate("woken by dequeue", 2, func(h *sim.Proc) {
			// Dequeued after the close: the next delegator finds the
			// queue closed, and only release wakes it.
			delegate("woken by release", 3, func(h *sim.Proc) {})
			waitFor("a delegator to park on the closed queue", parked)
		})
		waitFor("a delegator to park on the full ring", parked)
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a parked delegator was never woken")
	}
	want := []string{"own", "full", "woken by dequeue", "woken by release"}
	if !slices.Equal(ran, want) {
		t.Errorf("sections ran as %q, want %q", ran, want)
	}
	if l.q.held || l.q.n != 0 || l.q.waiters.Len() != 0 {
		t.Errorf("queue not clean: held=%v queued=%d parked=%d", l.q.held, l.q.n, l.q.waiters.Len())
	}
}

// TestDelegateAsyncOutOfOrderAndAbandoned: one thread holds three waits at
// once, redeems the third, then the first, and never the second. Each wait
// delivers its own section's completion time; the abandoned Waiter is
// simply not recycled — the helper did not block on it.
func TestDelegateAsyncOutOfOrderAndAbandoned(t *testing.T) {
	l := NewQDLock(testFab())
	topo := sim.Topology{Nodes: 1, Sockets: 1, CoresPerSocket: 4}
	helper, p := topo.NewProc(0, 0), topo.NewProc(0, 1)
	var queued atomic.Int32
	var doneAt [3]sim.Time
	helped := make(chan struct{})
	go func() {
		l.Delegate(helper, func(h *sim.Proc) {
			for queued.Load() < 3 { // hold the queue open until all three are in
				runtime.Gosched()
			}
		})
		close(helped)
	}()
	for {
		l.q.mu.Lock()
		open := l.q.open
		l.q.mu.Unlock()
		if open {
			break
		}
		runtime.Gosched()
	}
	var waits [3]func(*sim.Proc)
	for i := range waits {
		i := i
		waits[i] = l.DelegateAsync(p, func(h *sim.Proc) {
			h.Advance(1000)
			doneAt[i] = h.Now()
		})
		if waits[i] == nil {
			t.Fatalf("section %d ran inline although the queue was open", i)
		}
		queued.Add(1)
	}
	<-helped // all three have run: the helper never waits for a waiter
	waits[2](p)
	if p.Now() != doneAt[2] {
		t.Fatalf("wait 2 left the clock at %d, want its section's completion %d", p.Now(), doneAt[2])
	}
	waits[0](p) // completed earlier: max-combining leaves the clock alone
	if p.Now() != doneAt[2] || doneAt[0] >= doneAt[2] {
		t.Fatalf("wait 0 moved the clock to %d (sections done at %v)", p.Now(), doneAt)
	}
	ran := false
	l.DelegateWait(p, func(h *sim.Proc) { ran = true })
	if !ran || l.q.held {
		t.Fatalf("the lock is not usable after an abandoned wait: ran=%v held=%v", ran, l.q.held)
	}
}

func BenchmarkQDDelegate(b *testing.B) {
	l := NewQDLock(testFab())
	var s pair
	sim.NewGroup(procs(sim.Topology{Nodes: 1, Sockets: 1, CoresPerSocket: 2}, 2)).Run(func(i int, p *sim.Proc) {
		section := func(h *sim.Proc) { h.Advance(5) }
		s.bench(b, i, func() {
			l.Delegate(p, section)
			l.DelegateWait(p, section)
		})
	})
}

func BenchmarkHQDLDelegate(b *testing.B) {
	c := dsmCluster(1)
	l := NewHQDLock(c)
	var s pair
	c.Run(2, func(th *core.Thread) {
		section := func(h *core.Thread) { h.P.Advance(5) }
		s.bench(b, th.Rank, func() {
			l.Delegate(th, section)
			l.DelegateWait(th, section)
		})
	})
}

func BenchmarkTicketHandoff(b *testing.B) {
	c := dsmCluster(2)
	l := newGlobalTicketLock(c, 0)
	var s pair
	c.Run(1, func(th *core.Thread) {
		s.bench(b, th.Node, func() {
			l.Lock(th)
			l.Unlock(th)
		})
	})
}

// bench times op on thread 0 of a pair.
func (s *pair) bench(b *testing.B, id int, op func()) {
	if s.partner(id, op) {
		return
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	s.stop.Store(true)
}

// waitQueued spins until q is open with n sections in its ring.
func waitQueued[H any](q *delegQueue[H], n int) {
	for {
		q.mu.Lock()
		ok := q.open && q.n == n
		q.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// edgeLog is a probe sink keeping the delegation events of a run.
type edgeLog struct {
	mu     sync.Mutex
	events []probe.Event
}

func (l *edgeLog) Observe(e probe.Event) {
	if e.Kind == probe.Delegate || e.Kind == probe.DelegateDone || e.Kind == probe.DelegateWait {
		l.mu.Lock()
		l.events = append(l.events, e)
		l.mu.Unlock()
	}
}

// TestHQDLDelegateWaitLandsOnCompletion: a delegator that waits for its
// section sleeps until the helper has run it and wakes with its clock at
// exactly the helper's completion time, which lies ahead of its own. Its
// DelegateWait event carries the edge key its Delegate event opened and ends
// where DelegateDone does.
func TestHQDLDelegateWaitLandsOnCompletion(t *testing.T) {
	var log edgeLog
	cfg := core.DefaultConfig(1)
	cfg.MemoryBytes = 4 << 20
	cfg.Observers = append(cfg.Observers, &log)
	c := core.MustNewCluster(cfg)
	defer c.Close()
	l := NewHQDLock(c)
	q := l.nodes[0]
	var doneAt, woke sim.Time
	c.Run(2, func(th *core.Thread) {
		if th.Rank == 0 {
			l.Delegate(th, func(h *core.Thread) {
				waitQueued(q, 1)
				h.P.Advance(10000)
			})
			return
		}
		waitQueued(q, 0)
		l.DelegateWait(th, func(h *core.Thread) {
			h.P.Advance(1000)
			doneAt = h.P.Now()
		})
		woke = th.P.Now()
	})
	if doneAt < 11000 || woke != doneAt {
		t.Fatalf("delegator woke at %d, want its section's completion %d (≥ 11000)", woke, doneAt)
	}
	byKind := map[probe.Kind]probe.Event{}
	for _, e := range log.events {
		byKind[e.Kind] = e
	}
	if len(log.events) != 3 || len(byKind) != 3 {
		t.Fatalf("want one Delegate, DelegateDone and DelegateWait event, got %+v", log.events)
	}
	key := byKind[probe.Delegate].Key
	w := byKind[probe.DelegateWait]
	if key == 0 || byKind[probe.DelegateDone].Key != key || w.Key != key || w.Arg != int64(key) {
		t.Fatalf("edge keys do not match: %+v", log.events)
	}
	if w.T != doneAt || byKind[probe.DelegateDone].T != doneAt {
		t.Fatalf("DelegateWait ends at %d and DelegateDone at %d, want %d", w.T, byKind[probe.DelegateDone].T, doneAt)
	}
}
