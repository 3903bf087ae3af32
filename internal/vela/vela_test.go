package vela

import (
	"sync/atomic"
	"testing"

	"argo/internal/core"
)

// Vela's barrier is part of every cluster (package core). The barrier tests
// here and in cygnus_test.go use only what a program sees — Barrier,
// InitDone and the membership they leave behind; those that read the
// barrier's fields are core's.
func cluster(nodes int) *core.Cluster {
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	return core.MustNewCluster(cfg)
}

func TestHierBarrierAlignsClocks(t *testing.T) {
	c := cluster(3)
	var clocks [9]int64
	c.Run(3, func(th *core.Thread) {
		th.Compute(int64(th.Rank) * 500)
		th.Barrier()
		clocks[th.Rank] = th.P.Now()
	})
	for i := 1; i < 9; i++ {
		if clocks[i] != clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
	if clocks[0] < 8*500 {
		t.Fatalf("barrier released before slowest thread: %d", clocks[0])
	}
}

func TestHierBarrierFencesOncePerNode(t *testing.T) {
	c := cluster(2)
	c.Run(4, func(th *core.Thread) {
		for i := 0; i < 5; i++ {
			th.Barrier()
		}
	})
	s := c.Stats()
	// One SD and one SI per node per episode — not per thread.
	if s.SDFences != 2*5 || s.SIFences != 2*5 {
		t.Fatalf("fences per episode: SD=%d SI=%d, want 10/10", s.SDFences, s.SIFences)
	}
}

func TestHierBarrierReusable(t *testing.T) {
	c := cluster(2)
	var count atomic.Int64
	c.Run(2, func(th *core.Thread) {
		for i := 0; i < 20; i++ {
			count.Add(1)
			th.Barrier()
			// All threads must have incremented before anyone proceeds.
			if got := count.Load(); got < int64((i+1)*4) {
				panic("barrier released early")
			}
		}
	})
}

func TestWaitAndResetClearsClassification(t *testing.T) {
	c := cluster(2)
	xs := c.AllocI64(100)
	c.Run(1, func(th *core.Thread) {
		if th.Node == 0 {
			th.SetI64(xs, 0, 1)
		}
		th.InitDone()
	})
	pg := c.Space.PageOf(xs.At(0))
	if !c.Dir.Home(pg).W.Empty() {
		t.Fatal("classification reset did not clear writers")
	}
	if got := c.DumpI64(xs)[0]; got != 1 {
		t.Fatalf("reset lost data: %d", got)
	}
}

func TestFlagOrdering(t *testing.T) {
	c := cluster(2)
	xs := c.AllocI64(10)
	f := NewFlag(c, 1)
	c.Run(2, func(th *core.Thread) {
		if th.Rank == 0 {
			th.Compute(5000)
			th.SetI64(xs, 0, 99)
			f.Signal(th)
		}
		if th.Node == 1 {
			f.Wait(th)
			if th.P.Now() < 5000 {
				panic("waiter clock behind signaler")
			}
			if th.GetI64(xs, 0) != 99 {
				panic("flag did not order the write")
			}
		}
	})
}

func TestFlagTryWait(t *testing.T) {
	c := cluster(2)
	f := NewFlag(c, 0)
	c.Run(1, func(th *core.Thread) {
		if th.Node == 1 {
			// Poll until set; must eventually succeed.
			for !f.TryWait(th) {
			}
		} else {
			th.Compute(100)
			f.Signal(th)
		}
	})
}

func TestFlagReset(t *testing.T) {
	c := cluster(1)
	f := NewFlag(c, 0)
	c.Run(1, func(th *core.Thread) {
		f.Signal(th)
		f.Wait(th)
	})
	f.Reset()
	c.Run(1, func(th *core.Thread) {
		if f.TryWait(th) {
			panic("flag survived reset")
		}
	})
}
