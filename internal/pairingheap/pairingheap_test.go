package pairingheap

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"

	"argo/internal/core"
	"argo/internal/fabric"
	"argo/internal/pgas"
	"argo/internal/sim"
)

// intHeap is the container/heap reference model.
type intHeap []int64

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *intHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// size is the heap's element count, read from its meta words.
func (h *LocalHeap) size() int { return int(h.words[mSize]) }

func TestNativeHeapBasics(t *testing.T) {
	h := NewLocalHeap(8)
	if _, ok := h.ExtractMin(); ok {
		t.Fatal("empty heap returned a min")
	}
	h.Insert(5)
	h.Insert(1)
	h.Insert(3)
	if h.size() != 3 {
		t.Fatalf("len = %d", h.size())
	}
	want := []int64{1, 3, 5}
	for _, w := range want {
		if got, ok := h.ExtractMin(); !ok || got != w {
			t.Fatalf("extract = %d,%v want %d", got, ok, w)
		}
	}
	if h.size() != 0 {
		t.Fatalf("len = %d after drain", h.size())
	}
}

func TestNativeHeapSortsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewLocalHeap(5000)
	var model intHeap
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1000) // duplicates likely
		heap.Push(&model, v)
		h.Insert(v)
	}
	for i := 0; model.Len() > 0; i++ {
		want := heap.Pop(&model).(int64)
		got, ok := h.ExtractMin()
		if !ok || got != want {
			t.Fatalf("element %d: got %d,%v want %d", i, got, ok, want)
		}
	}
}

// Property: any interleaving of inserts and extracts matches container/heap.
func TestNativeHeapModelProperty(t *testing.T) {
	f := func(ops []int16) bool {
		h := NewLocalHeap(len(ops))
		var model intHeap
		for _, op := range ops {
			if op >= 0 {
				h.Insert(int64(op))
				heap.Push(&model, int64(op))
			} else if model.Len() > 0 {
				want := heap.Pop(&model).(int64)
				got, ok := h.ExtractMin()
				if !ok || got != want {
					return false
				}
			} else if _, ok := h.ExtractMin(); ok {
				return false
			}
			if h.size() != model.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func dsmCluster() *core.Cluster {
	cfg := core.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	return core.MustNewCluster(cfg)
}

func TestDSMHeapMatchesNative(t *testing.T) {
	c := dsmCluster()
	h := NewDSMHeap(c, 4096)
	var ref intHeap
	rng := rand.New(rand.NewSource(7))
	c.Run(1, func(th *core.Thread) {
		if th.Node != 0 {
			return
		}
		for i := 0; i < 3000; i++ {
			if rng.Intn(3) != 0 || ref.Len() == 0 {
				v := rng.Int63n(500)
				h.Insert(th, v)
				heap.Push(&ref, v)
			} else {
				got, ok := h.ExtractMin(th)
				if want := heap.Pop(&ref).(int64); !ok || got != want {
					panic("DSM heap diverged from the reference heap")
				}
			}
			if h.Len(th) != ref.Len() {
				panic("DSM heap size diverged")
			}
		}
	})
}

func TestDSMHeapFreeListReuse(t *testing.T) {
	c := dsmCluster()
	h := NewDSMHeap(c, 8) // tiny capacity: churn must reuse slots
	c.Run(1, func(th *core.Thread) {
		if th.Rank != 0 {
			return
		}
		for round := 0; round < 50; round++ {
			for i := 0; i < 8; i++ {
				h.Insert(th, int64(round*100+i))
			}
			for i := 0; i < 8; i++ {
				got, ok := h.ExtractMin(th)
				if !ok || got != int64(round*100+i) {
					panic("free-list reuse corrupted heap order")
				}
			}
		}
	})
}

func TestDSMHeapFullPanics(t *testing.T) {
	c := dsmCluster()
	h := NewDSMHeap(c, 2)
	panicked := false
	c.Run(1, func(th *core.Thread) {
		if th.Rank != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		for i := 0; i < 3; i++ {
			h.Insert(th, int64(i))
		}
	})
	if !panicked {
		t.Fatal("overfull DSM heap did not panic")
	}
}

func TestDSMHeapSurvivesMigration(t *testing.T) {
	// Insert on node 0, extract on node 1 (with a barrier between): the
	// heap pages must migrate coherently.
	c := dsmCluster()
	h := NewDSMHeap(c, 1024)
	c.Run(1, func(th *core.Thread) {
		if th.Node == 0 {
			for i := 999; i >= 0; i-- {
				h.Insert(th, int64(i))
			}
		}
		th.Barrier()
		if th.Node == 1 {
			for i := 0; i < 1000; i++ {
				got, ok := h.ExtractMin(th)
				if !ok || got != int64(i) {
					panic("heap migration lost or reordered elements")
				}
			}
		}
	})
}

func TestPGASHeapMatchesNative(t *testing.T) {
	fab := wloadFabric(2)
	w := pgas.NewWorld(fab, 1)
	h := NewPGASHeap(w, 2048)
	var ref intHeap
	w.Run(func(r *pgas.Rank) {
		if r.ID != 0 {
			return
		}
		h.Init(r)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 2000; i++ {
			if rng.Intn(3) != 0 || ref.Len() == 0 {
				v := rng.Int63n(400)
				h.Insert(r, v)
				heap.Push(&ref, v)
			} else {
				got, ok := h.ExtractMin(r)
				if want := heap.Pop(&ref).(int64); !ok || got != want {
					panic("PGAS heap diverged from the reference heap")
				}
			}
			if h.Len(r) != ref.Len() {
				panic("PGAS heap size diverged")
			}
		}
	})
}

func TestPGASHeapCrossRank(t *testing.T) {
	fab := wloadFabric(2)
	w := pgas.NewWorld(fab, 1)
	h := NewPGASHeap(w, 256)
	l := w.NewLock(0)
	w.Run(func(r *pgas.Rank) {
		if r.ID == 0 {
			h.Init(r)
		}
		r.Barrier()
		for k := 0; k < 100; k++ {
			l.Lock(r)
			h.Insert(r, int64(r.ID*1000+k))
			l.Unlock(r)
		}
		r.Barrier()
		if r.ID == 1 {
			last := int64(-1)
			for h.Len(r) > 0 {
				v, ok := h.ExtractMin(r)
				if !ok || v < last {
					panic("cross-rank PGAS heap out of order")
				}
				last = v
			}
		}
	})
}

func wloadFabric(nodes int) *fabric.Fabric {
	return fabric.MustNew(sim.Topology{Nodes: nodes, Sockets: 4, CoresPerSocket: 4}, fabric.DefaultParams())
}
