package locks

import (
	"testing"

	"argo/internal/core"
	"argo/internal/vela"
)

func dsmCluster(nodes int) *core.Cluster {
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	c := core.MustNewCluster(cfg)
	c.BarrierFactory = vela.DefaultBarrier
	return c
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

func TestHQDLBatchesFences(t *testing.T) {
	// HQDL must fence per batch, not per section: with heavy delegation the
	// SI-fence count stays well below the section count.
	c := dsmCluster(2)
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
	s := c.Stats()
	sections := int64(2 * tpn * iters)
	if s.SIFences*4 > sections {
		t.Fatalf("HQDL fenced too often: %d SI fences for %d sections", s.SIFences, sections)
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
	l := NewGlobalTicketLock(c, 0)
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
