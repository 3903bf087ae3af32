package locks

import (
	"sync"
	"testing"

	"argo/internal/core"
	"argo/internal/probe"
)

func dsmCluster(nodes int) *core.Cluster {
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	return core.MustNewCluster(cfg)
}

// counterTest increments a counter that lives in DSM global memory under the
// lock. This is the acid test of the fence discipline: without SI at
// acquire a node reads a stale counter; without SD at release the next node
// never sees the increment.
func counterTest(t *testing.T, nodes, tpn, iters int, mk func(c *core.Cluster) DSMLock) {
	t.Helper()
	c := dsmCluster(nodes)
	slot := c.AllocI64(1)
	l := mk(c)
	c.Run(tpn, func(th *core.Thread) {
		for k := 0; k < iters; k++ {
			l.Lock(th)
			th.SetI64(slot, 0, th.GetI64(slot, 0)+1)
			th.P.Advance(20)
			l.Unlock(th)
		}
	})
	want := int64(nodes * tpn * iters)
	if got := c.DumpI64(slot)[0]; got != want {
		t.Fatalf("counter = %d, want %d (fence discipline broken)", got, want)
	}
}

func TestDSMMutexCounter(t *testing.T) {
	counterTest(t, 3, 2, 50, func(c *core.Cluster) DSMLock { return NewDSMMutex(c, 0) })
}

func TestDSMCohortCounter(t *testing.T) {
	counterTest(t, 3, 2, 50, func(c *core.Cluster) DSMLock { return NewDSMCohortLock(c) })
}

func TestDSMCohortPrefersLocal(t *testing.T) {
	c := dsmCluster(2)
	slot := c.AllocI64(1)
	l := NewDSMCohortLock(c)
	c.Run(4, func(th *core.Thread) {
		// Contend from a common start: the whole loop is a millisecond of
		// host time, so on a loaded host the first goroutines launched could
		// otherwise finish before the rest exist, and threads that run alone
		// hand over remotely every time.
		th.Barrier()
		for k := 0; k < 100; k++ {
			l.Lock(th)
			th.SetI64(slot, 0, th.GetI64(slot, 0)+1)
			l.Unlock(th)
		}
	})
	s := c.Stats()
	if s.LockHandoversLocal <= s.LockHandoversRemote {
		t.Fatalf("DSM cohort not batching: local=%d remote=%d",
			s.LockHandoversLocal, s.LockHandoversRemote)
	}
}

func TestHQDLCounter(t *testing.T) {
	c := dsmCluster(3)
	slot := c.AllocI64(1)
	l := NewHQDLock(c)
	const tpn, iters = 2, 50
	c.Run(tpn, func(th *core.Thread) {
		for k := 0; k < iters; k++ {
			l.DelegateWait(th, func(h *core.Thread) {
				h.SetI64(slot, 0, h.GetI64(slot, 0)+1)
				h.P.Advance(20)
			})
		}
	})
	want := int64(3 * tpn * iters)
	if got := c.DumpI64(slot)[0]; got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestHQDLDetachedSectionsAllExecute(t *testing.T) {
	c := dsmCluster(2)
	slot := c.AllocI64(1)
	l := NewHQDLock(c)
	const tpn, iters = 3, 40
	c.Run(tpn, func(th *core.Thread) {
		for k := 0; k < iters; k++ {
			l.Delegate(th, func(h *core.Thread) {
				h.SetI64(slot, 0, h.GetI64(slot, 0)+1)
			})
		}
		// A final waited section per thread flushes behind the detached
		// ones (FIFO queue ⇒ everything before it has executed).
		l.DelegateWait(th, func(h *core.Thread) {})
		th.Barrier()
	})
	want := int64(2 * tpn * iters)
	if got := c.DumpI64(slot)[0]; got != want {
		t.Fatalf("detached sections lost: counter = %d, want %d", got, want)
	}
}

// kindTally is a probe sink counting events, and summing their Arg, by kind.
type kindTally struct {
	mu     sync.Mutex
	n, arg [probe.NumKinds]int64
}

func (k *kindTally) Observe(e probe.Event) {
	k.mu.Lock()
	k.n[e.Kind]++
	k.arg[e.Kind] += e.Arg
	k.mu.Unlock()
}

func TestHQDLBatchesFences(t *testing.T) {
	// HQDL must fence per batch, not per section. How many sections a batch
	// collects depends on how the host schedules the delegators (the ratio is
	// TestHQDLFencesLessThanDSMMutex's business); what holds on every
	// schedule is that each helper batch pays exactly one SI and one SD fence
	// and that the batches together ran every section.
	var seen kindTally
	cfg := core.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	cfg.Observers = append(cfg.Observers, &seen)
	c := core.MustNewCluster(cfg)
	slot := c.AllocI64(1)
	l := NewHQDLock(c)
	const tpn, iters = 4, 100
	c.Run(tpn, func(th *core.Thread) {
		for k := 0; k < iters; k++ {
			l.DelegateWait(th, func(h *core.Thread) {
				h.SetI64(slot, 0, h.GetI64(slot, 0)+1)
			})
		}
	})
	sections := int64(2 * tpn * iters)
	batches := seen.n[probe.HQDLBatch]
	if si, sd := seen.n[probe.SIFence], seen.n[probe.SDFence]; si != batches || sd != batches || batches == 0 {
		t.Fatalf("%d helper batches paid %d SI and %d SD fences, want one of each per batch", batches, si, sd)
	}
	if s := c.Stats(); s.SIFences != batches || s.SDFences != batches {
		t.Fatalf("stats count %d SI and %d SD fences, the spine %d batches", s.SIFences, s.SDFences, batches)
	}
	if got := seen.arg[probe.HQDLBatch]; got != sections {
		t.Fatalf("the batches ran %d sections, want %d", got, sections)
	}
	if got := c.DumpI64(slot)[0]; got != sections {
		t.Fatalf("counter = %d, want %d", got, sections)
	}
}

func TestHQDLFencesLessThanDSMMutex(t *testing.T) {
	run := func(useHQDL bool) int64 {
		c := dsmCluster(2)
		slot := c.AllocI64(1)
		var hq *HQDLock
		var mu *DSMMutex
		if useHQDL {
			hq = NewHQDLock(c)
		} else {
			mu = NewDSMMutex(c, 0)
		}
		c.Run(4, func(th *core.Thread) {
			for k := 0; k < 50; k++ {
				if useHQDL {
					hq.DelegateWait(th, func(h *core.Thread) {
						h.SetI64(slot, 0, h.GetI64(slot, 0)+1)
					})
				} else {
					mu.Lock(th)
					th.SetI64(slot, 0, th.GetI64(slot, 0)+1)
					mu.Unlock(th)
				}
			}
		})
		return c.Stats().SIFences
	}
	hqdl := run(true)
	mutex := run(false)
	if hqdl >= mutex {
		t.Fatalf("HQDL SI fences (%d) not fewer than DSMMutex (%d)", hqdl, mutex)
	}
}

func TestGlobalTicketLockNoFences(t *testing.T) {
	// The building-block lock must not fence by itself.
	c := dsmCluster(2)
	l := newGlobalTicketLock(c, 0)
	c.Run(2, func(th *core.Thread) {
		for k := 0; k < 20; k++ {
			l.Lock(th)
			th.P.Advance(5)
			l.Unlock(th)
		}
	})
	if s := c.Stats(); s.SIFences != 0 || s.SDFences != 0 {
		t.Fatalf("bare ticket lock fenced: SI=%d SD=%d", s.SIFences, s.SDFences)
	}
}
