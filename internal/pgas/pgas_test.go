package pgas

import (
	"runtime"
	"sync/atomic"
	"testing"

	"argo/internal/fabric"
	"argo/internal/racetag"
	"argo/internal/sim"
)

func world(nodes, rpn int) *World {
	fab := fabric.MustNew(sim.Topology{Nodes: nodes, Sockets: 4, CoresPerSocket: 4}, fabric.DefaultParams())
	return NewWorld(fab, rpn)
}

func TestBlockDistribution(t *testing.T) {
	w := world(2, 2) // 4 ranks
	s := w.NewSharedF64(10)
	// ceil(10/4)=3: blocks 3,3,3,1
	wantOwners := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, want := range wantOwners {
		if got := s.ownerOf(i); got != want {
			t.Fatalf("owner of %d = %d, want %d", i, got, want)
		}
	}
	lo, hi := s.BlockRange(3)
	if lo != 9 || hi != 10 {
		t.Fatalf("rank 3 block = [%d,%d)", lo, hi)
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	w := world(2, 1)
	s := w.NewSharedF64(100)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 100; i++ {
				s.Put(r, i, float64(i)*2)
			}
		}
		r.Barrier()
		if r.ID == 1 {
			for i := 0; i < 100; i++ {
				if got := s.Get(r, i); got != float64(i)*2 {
					panic("pgas value lost")
				}
			}
		}
	})
}

func TestRemoteCostsMoreThanLocal(t *testing.T) {
	w := world(2, 1)
	s := w.NewSharedF64(100)
	var localT, remoteT sim.Time
	w.Run(func(r *Rank) {
		if r.ID != 0 {
			return
		}
		lo, _ := s.BlockRange(0)
		t0 := r.P.Now()
		for k := 0; k < 10; k++ {
			s.Get(r, lo+k)
		}
		localT = r.P.Now() - t0
		rlo, _ := s.BlockRange(1)
		t0 = r.P.Now()
		for k := 0; k < 10; k++ {
			s.Get(r, rlo+k)
		}
		remoteT = r.P.Now() - t0
	})
	if localT >= remoteT {
		t.Fatalf("local gets (%d) not cheaper than remote gets (%d)", localT, remoteT)
	}
}

func TestBulkBeatsFineGrained(t *testing.T) {
	w := world(2, 1)
	s := w.NewSharedF64(4096)
	var fine, bulk sim.Time
	w.Run(func(r *Rank) {
		if r.ID != 0 {
			return
		}
		rlo, rhi := s.BlockRange(1)
		t0 := r.P.Now()
		for i := rlo; i < rhi; i++ {
			s.Get(r, i)
		}
		fine = r.P.Now() - t0
		dst := make([]float64, rhi-rlo)
		t0 = r.P.Now()
		s.GetBlock(r, rlo, rhi, dst)
		bulk = r.P.Now() - t0
	})
	if bulk*4 > fine {
		t.Fatalf("bulk transfer (%d) should be far cheaper than fine-grained (%d)", bulk, fine)
	}
}

func TestGetBlockSpansOwners(t *testing.T) {
	w := world(2, 2)
	s := w.NewSharedF64(40)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 40; i++ {
				s.Put(r, i, float64(i+1))
			}
		}
		r.Barrier()
		if r.ID == 3 {
			dst := make([]float64, 40)
			s.GetBlock(r, 0, 40, dst)
			for i, v := range dst {
				if v != float64(i+1) {
					panic("GetBlock across owners corrupted data")
				}
			}
		}
	})
}

func TestPutBlock(t *testing.T) {
	w := world(2, 1)
	s := w.NewSharedF64(64)
	w.Run(func(r *Rank) {
		if r.ID == 1 {
			src := make([]float64, 64)
			for i := range src {
				src[i] = float64(i) * 3
			}
			s.PutBlock(r, 0, src)
		}
		r.Barrier()
		if r.ID == 0 {
			for i := 0; i < 64; i++ {
				if got := s.Get(r, i); got != float64(i)*3 {
					panic("PutBlock lost data")
				}
			}
		}
	})
}

func TestLocalBlockAlias(t *testing.T) {
	w := world(2, 1)
	s := w.NewSharedF64(20)
	w.Run(func(r *Rank) {
		blk := s.LocalBlock(r)
		for i := range blk {
			blk[i] = float64(r.ID*100 + i)
		}
		r.Barrier()
		lo, hi := s.BlockRange(r.ID)
		for i := lo; i < hi; i++ {
			if got := s.Get(r, i); got != float64(r.ID*100+(i-lo)) {
				panic("LocalBlock does not alias the shared block")
			}
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	w := world(3, 2)
	results := make([]float64, w.Size)
	w.Run(func(r *Rank) {
		// Two back-to-back reductions must not interfere.
		first := w.AllreduceSum(r, float64(r.ID))
		second := w.AllreduceSum(r, 1)
		results[r.ID] = first*1000 + second
	})
	wantFirst := 0.0
	for i := 0; i < w.Size; i++ {
		wantFirst += float64(i)
	}
	for i, got := range results {
		if got != wantFirst*1000+float64(w.Size) {
			t.Fatalf("rank %d reductions = %v, want %v", i, got, wantFirst*1000+float64(w.Size))
		}
	}
}

func TestLockExclusionAcrossRanks(t *testing.T) {
	w := world(2, 4)
	l := w.NewLock(0)
	counter := 0
	const per = 100
	w.Run(func(r *Rank) {
		for i := 0; i < per; i++ {
			l.Lock(r)
			counter++
			r.P.Advance(20)
			l.Unlock(r)
		}
	})
	if counter != 8*per {
		t.Fatalf("lost updates: %d, want %d", counter, 8*per)
	}
}

func TestLockChargesRemoteAtomics(t *testing.T) {
	w := world(2, 1)
	l := w.NewLock(0)
	w.Run(func(r *Rank) {
		if r.ID != 1 {
			return
		}
		before := r.P.Now()
		l.Lock(r)
		l.Unlock(r)
		if r.P.Now()-before < 2*w.Fab.P.RemoteLatency {
			panic("remote lock acquisition cost less than a round trip")
		}
	})
}

func TestSharedI64(t *testing.T) {
	w := world(2, 1)
	s := w.NewSharedI64(100)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 100; i++ {
				s.Put(r, i, int64(i)*-3)
			}
		}
		r.Barrier()
		if r.ID == 1 {
			dst := make([]int64, 100)
			s.GetBlock(r, 0, 100, dst)
			for i, v := range dst {
				if v != int64(i)*-3 {
					panic("SharedI64 round trip failed")
				}
			}
		}
	})
}

// TestAllocFreeLockHandoff: two ranks pass a upc_lock back and forth, each
// releasing only once the other is parked behind it, so every passage after
// the first parks and every release hands over — on recycled waiters
// (sim.WaitQueue), allocating nothing.
func TestAllocFreeLockHandoff(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	w := world(2, 1)
	l := w.NewLock(0)
	var stop atomic.Bool
	var allocs float64
	w.Run(func(r *Rank) {
		passage := func() {
			l.Lock(r)
			for !stop.Load() {
				l.mu.Lock()
				parked := l.waiters.Len()
				l.mu.Unlock()
				if parked == 1 {
					break
				}
				runtime.Gosched()
			}
			l.Unlock(r)
		}
		if r.ID != 0 {
			for !stop.Load() {
				passage()
			}
			return
		}
		for i := 0; i < 50; i++ {
			passage()
		}
		allocs = testing.AllocsPerRun(200, passage)
		stop.Store(true)
	})
	if allocs != 0 {
		t.Fatalf("a contended pgas.Lock hand-off allocated %.1f times, want 0", allocs)
	}
}
