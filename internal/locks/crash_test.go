package locks

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/trace"
)

// queued reports how many acquirers are parked behind the holder.
func (l *globalTicketLock) queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiters.Len()
}

// crashLockCluster builds a crash-armed cluster (a scripted crash far beyond
// the test's episodes, just to arm the detector) with a metrics suite so
// lock excisions are counted.
func crashLockCluster(nodes int) (*core.Cluster, *metrics.Suite) {
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	plan := fault.Plan{Seed: 1, Crashes: []fault.ScriptedCrash{{Node: 0, Episode: 1 << 30}}}
	cfg.Faults = &plan
	ms := metrics.NewSuite()
	cfg.Observers = append(cfg.Observers, ms)
	c := core.MustNewCluster(cfg)
	return c, ms
}

// lockRetryReports counts the LockRetries reports: one per lock-word
// operation the fabric had to reissue.
type lockRetryReports struct{ n atomic.Int64 }

func (s *lockRetryReports) Observe(e probe.Event) {
	if e.Kind == probe.LockRetries {
		s.n.Add(1)
	}
}

// TestTicketReissuesReportRecovery: under drops and transient atomic
// failures, a reissued ticket atomic or grant write is a recovered operation
// like every other one a thread waits on — argo_fault_recovery_ns observes
// one per lock-retry report.
func TestTicketReissuesReportRecovery(t *testing.T) {
	cfg := core.DefaultConfig(3)
	cfg.MemoryBytes = 4 << 20
	plan, err := fault.ParsePlan("drop=0.2,atomicfail=0.3,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &plan
	ms, reports := metrics.NewSuite(), &lockRetryReports{}
	cfg.Observers = append(cfg.Observers, ms, reports)
	c := core.MustNewCluster(cfg)
	defer c.Close()
	mu := NewDSMMutex(c, 0)
	c.Run(1, func(th *core.Thread) {
		for i := 0; i < 40; i++ {
			mu.Lock(th)
			th.P.Advance(100)
			mu.Unlock(th)
		}
	})
	var recovered int64
	for _, h := range ms.Dump().Histograms {
		if op := h.Labels["op"]; h.Name == "argo_fault_recovery_ns" && (op == fault.ClassAtomic.String() || op == fault.ClassWrite.String()) {
			recovered += h.Count
		}
	}
	if reports.n.Load() == 0 {
		t.Fatal("no ticket-word operation was reissued: not the path under test")
	}
	if recovered != reports.n.Load() {
		t.Fatalf("argo_fault_recovery_ns observed %d recovered ticket-word operations, want one per lock-retry report (%d)", recovered, reports.n.Load())
	}
}

// TestTicketLockDeadHolderExcised: node 1's thread takes the lock and dies
// without releasing. Once the membership excises the corpse, the lease
// expires, the head waiter is granted and pays the excision CAS, and every
// survivor still gets its critical section — the lock makes progress.
func TestTicketLockDeadHolderExcised(t *testing.T) {
	const nodes = 4
	c, ms := crashLockCluster(nodes)
	l := newGlobalTicketLock(c, 0)

	var acquired atomic.Int64
	// Host-side failure detector: once the dead holder has all survivors
	// queued behind it, excise it (one detection timeout after the kill,
	// as the membership layer would).
	go func() {
		for {
			l.mu.Lock()
			holderDead := l.locked && l.holder == 1 && !c.Health.Alive(1)
			l.mu.Unlock()
			if holderDead && l.queued() == nodes-1 {
				c.Health.Excise(1, 50_000+fault.Timeout, 1)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	c.Run(1, func(th *core.Thread) {
		if th.Node == 1 {
			l.Lock(th)
			c.Health.Kill(1, th.P.Now(), 1, probe.CrashAtBarrier)
			return // dies holding the lock: no Unlock
		}
		// Survivors: wait until the doomed node holds the lock, then queue.
		for {
			l.mu.Lock()
			h := l.holder
			l.mu.Unlock()
			if h == 1 {
				break
			}
			runtime.Gosched()
		}
		l.Lock(th)
		acquired.Add(1)
		th.P.Advance(100)
		l.Unlock(th)
	})

	if got := acquired.Load(); got != nodes-1 {
		t.Fatalf("%d survivors acquired the lock, want %d", got, nodes-1)
	}
	exc := excisions(ms)
	if exc != 1 {
		t.Fatalf("argo_crash_lock_excisions_total = %d, want 1", exc)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.locked || l.holder != -1 || l.waiters.Len() != 0 {
		t.Fatalf("lock not clean after recovery: locked=%v holder=%d waiters=%d",
			l.locked, l.holder, l.waiters.Len())
	}
}

// TestTicketLockDeadWaiterPruned: a waiter's node is excised while parked in
// the queue; the waiter is pruned (its thread unwinds with a CrashSignal,
// absorbed by the SPMD runner) and never enters the critical section.
func TestTicketLockDeadWaiterPruned(t *testing.T) {
	c, _ := crashLockCluster(3)
	l := newGlobalTicketLock(c, 0)

	var doomedRan, release atomic.Bool
	go func() {
		for {
			// Only node 1 can be parked yet: node 0 queues after the release.
			if l.queued() == 1 {
				c.Health.Kill(1, 10_000, 1, probe.CrashAtBarrier)
				c.Health.Excise(1, 10_000+fault.Timeout, 1)
				release.Store(true)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	c.Run(1, func(th *core.Thread) {
		switch th.Node {
		case 2:
			l.Lock(th)
			for !release.Load() {
				runtime.Gosched()
			}
			th.P.Advance(100)
			l.Unlock(th)
		case 1:
			// Queue behind node 2's long critical section, then die parked.
			for {
				l.mu.Lock()
				h := l.holder
				l.mu.Unlock()
				if h == 2 {
					break
				}
				runtime.Gosched()
			}
			l.Lock(th) // pruned: unwinds via CrashSignal
			doomedRan.Store(true)
			l.Unlock(th)
		case 0:
			// Bystander: a live waiter queued after the doomed one must
			// still get the lock.
			for !release.Load() {
				runtime.Gosched()
			}
			l.Lock(th)
			th.P.Advance(50)
			l.Unlock(th)
		}
	})

	if doomedRan.Load() {
		t.Fatal("pruned waiter entered the critical section")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.locked || l.waiters.Len() != 0 {
		t.Fatalf("lock not clean after pruning: locked=%v waiters=%d", l.locked, l.waiters.Len())
	}
}

// TestTicketLockPrunedWaiterReused: the waiter node 1 parks on is a recycled
// one (it served a hand-off before); it is pruned by the excision, recycled
// again by the unwinding thread, and then serves node 0 — whose grant must be
// an ordinary one: no stale prune, no excision to pay.
func TestTicketLockPrunedWaiterReused(t *testing.T) {
	c, ms := crashLockCluster(3)
	l := newGlobalTicketLock(c, 0)

	var warmed, unwound, excised, doomedRan, survivorRan atomic.Bool
	spin := func(until func() bool) {
		for !until() {
			runtime.Gosched()
		}
	}
	heldBy2 := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.holder == 2
	}
	onePark := func() bool { return l.queued() == 1 }
	c.Run(1, func(th *core.Thread) {
		switch th.Node {
		case 2:
			l.Lock(th)
			spin(onePark)
			l.Unlock(th) // an ordinary hand-off to node 1 warms the pool
			spin(warmed.Load)
			l.Lock(th)
			spin(onePark) // node 1 again, on its recycled waiter
			c.Health.Kill(1, th.P.Now(), 1, probe.CrashAtBarrier)
			c.Health.Excise(1, th.P.Now()+fault.Timeout, 1)
			spin(unwound.Load) // the pruned waiter is back in the pool
			excised.Store(true)
			spin(onePark) // node 0, on the waiter node 1 left behind
			l.Unlock(th)
		case 1:
			defer unwound.Store(true)
			spin(heldBy2)
			l.Lock(th)
			l.Unlock(th)
			warmed.Store(true)
			spin(heldBy2)
			l.Lock(th) // pruned: unwinds via CrashSignal
			doomedRan.Store(true)
		case 0:
			spin(excised.Load)
			l.Lock(th)
			survivorRan.Store(true)
			l.Unlock(th)
		}
	})

	if doomedRan.Load() || !survivorRan.Load() {
		t.Fatalf("pruned waiter ran: %v, later acquirer ran: %v", doomedRan.Load(), survivorRan.Load())
	}
	if exc := excisions(ms); exc != 0 {
		t.Fatalf("argo_crash_lock_excisions_total = %d: a reused waiter remembered an excision", exc)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.locked || l.holder != -1 || l.waiters.Len() != 0 {
		t.Fatalf("lock not clean: locked=%v holder=%d waiters=%d", l.locked, l.holder, l.waiters.Len())
	}
}

// TestTicketLockHolderCrashAtUnlockSafePoint: with crashpoints=lock armed,
// a holder scheduled to die at episode 2 acquires in interval 1, carries the
// lock through barrier 1, and dies at Unlock's safe point — mid-critical-
// section, lease held. The recovery must not depend on the survivors'
// barrier progress: the dying holder expires its own lease, the head waiter
// pays the excision CAS, and every survivor still gets its critical section.
func TestTicketLockHolderCrashAtUnlockSafePoint(t *testing.T) {
	const nodes = 4
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	plan := fault.Plan{Seed: 1, CrashPoints: fault.SafeLock, Crashes: []fault.ScriptedCrash{{Node: 1, Episode: 2}}}
	cfg.Faults = &plan
	ms, tr := metrics.NewSuite(), trace.New(0)
	cfg.Observers = append(cfg.Observers, ms, tr)
	c := core.MustNewCluster(cfg)
	l := newGlobalTicketLock(c, 0)

	var acquired atomic.Int64
	var pastUnlock atomic.Bool
	c.Run(1, func(th *core.Thread) {
		if th.Node == 1 {
			l.Lock(th) // interval 1: safe point passes (dies only at ep 2)
			th.Barrier()
			// Wait until every survivor is parked in the queue, then die at
			// the release safe point.
			for {
				if l.queued() == nodes-1 {
					break
				}
				runtime.Gosched()
			}
			l.Unlock(th) // unwinds with CrashSignal at the safe point
			pastUnlock.Store(true)
			return
		}
		th.Barrier()
		l.Lock(th)
		acquired.Add(1)
		th.P.Advance(100)
		l.Unlock(th)
	})

	if pastUnlock.Load() {
		t.Fatal("dying holder survived its unlock safe point")
	}
	if got := acquired.Load(); got != nodes-1 {
		t.Fatalf("%d survivors acquired the lock, want %d", got, nodes-1)
	}
	if c.Health.Alive(1) {
		t.Fatal("node 1 still alive after its safe-point crash")
	}
	exc := excisions(ms)
	if exc != 1 {
		t.Fatalf("argo_crash_lock_excisions_total = %d, want 1", exc)
	}
	// The crash event is tagged with the lock safe point, not the barrier.
	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == probe.Crash {
			found = true
			if ev.Aux != probe.CrashAtLock {
				t.Fatalf("crash at safe point %s, want lock", trace.CrashKindName(ev.Aux))
			}
			if ev.Key != 2 {
				t.Fatalf("crash in episode %d, want 2", ev.Key)
			}
		}
	}
	if !found {
		t.Fatal("no crash event recorded")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.locked || l.holder != -1 || l.waiters.Len() != 0 {
		t.Fatalf("lock not clean after recovery: locked=%v holder=%d waiters=%d",
			l.locked, l.holder, l.waiters.Len())
	}
}

// TestTicketLockPartitionedHolderFenced: a partition isolates the current
// holder (suspect, not death). The lease expires and the head waiter takes
// over with the excision CAS; the fenced holder's eventual release is a
// stale no-op; healing the cut must not resurrect the lease, and the healed
// node reacquires as a normal citizen afterwards.
func TestTicketLockPartitionedHolderFenced(t *testing.T) {
	const nodes = 3
	c, ms := crashLockCluster(nodes)
	l := newGlobalTicketLock(c, 0)

	var acquired, reacquired atomic.Int64
	var fenced, healed atomic.Bool
	// Host-side detector: once the holder has both survivors queued, fence
	// it via a partition suspect; heal once the survivors have drained.
	go func() {
		for {
			l.mu.Lock()
			holder := l.holder
			l.mu.Unlock()
			if holder == 1 && l.queued() == nodes-1 {
				c.Health.Suspect(1, 20_000, 1)
				fenced.Store(true)
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		for acquired.Load() != nodes-1 {
			time.Sleep(50 * time.Microsecond)
		}
		c.Health.Heal(1, 200_000, 2)
		healed.Store(true)
	}()

	c.Run(1, func(th *core.Thread) {
		if th.Node == 1 {
			l.Lock(th)
			// Long critical section on the minority side: by the time the
			// release lands, the lease has been expired and re-granted.
			for !fenced.Load() {
				runtime.Gosched()
			}
			l.Unlock(th) // stale: rejected by the holder check
			for !healed.Load() {
				runtime.Gosched()
			}
			l.Lock(th)
			reacquired.Add(1)
			l.Unlock(th)
			return
		}
		for {
			l.mu.Lock()
			h := l.holder
			l.mu.Unlock()
			if h == 1 {
				break
			}
			runtime.Gosched()
		}
		l.Lock(th)
		acquired.Add(1)
		th.P.Advance(100)
		l.Unlock(th)
	})

	if got := acquired.Load(); got != nodes-1 {
		t.Fatalf("%d survivors acquired the lock, want %d", got, nodes-1)
	}
	if reacquired.Load() != 1 {
		t.Fatal("healed node never reacquired the lock")
	}
	exc := excisions(ms)
	if exc != 1 {
		t.Fatalf("argo_crash_lock_excisions_total = %d, want 1", exc)
	}
	if !c.Health.Alive(1) || c.Health.LiveCount() != nodes {
		t.Fatalf("suspect/heal changed liveness: alive=%v live=%d",
			c.Health.Alive(1), c.Health.LiveCount())
	}
	h := c.Health.HistoryString()
	for _, want := range []string{"suspect(n1)", "heal(n1)"} {
		if !strings.Contains(h, want) {
			t.Fatalf("history missing %q: %q", want, h)
		}
	}
	if got := c.Health.Epoch(); got != 1 {
		t.Fatalf("membership epoch %d, want 1 (heal bumps, suspect does not)", got)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.locked || l.holder != -1 || l.waiters.Len() != 0 {
		t.Fatalf("lock not clean after heal: locked=%v holder=%d waiters=%d",
			l.locked, l.holder, l.waiters.Len())
	}
}

// excisions reads argo_crash_lock_excisions_total from the suite's dump.
func excisions(ms *metrics.Suite) int64 {
	for _, c := range ms.Dump().Counters {
		if c.Name == "argo_crash_lock_excisions_total" {
			return c.Value
		}
	}
	return 0
}
