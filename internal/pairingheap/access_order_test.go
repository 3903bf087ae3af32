package pairingheap

import (
	"math/rand"
	"testing"

	"argo/internal/core"
	"argo/internal/pgas"
	"argo/internal/sim"
)

// heapMix runs a seeded mix of n operations on a heap, mostly inserts when
// fill is set and mostly extractions otherwise.
func heapMix(rng *rand.Rand, n int, fill bool, insert func(int64), extract func()) {
	for i := 0; i < n; i++ {
		if (rng.Intn(4) != 0) == fill {
			insert(rng.Int63n(1 << 20))
		} else {
			extract()
		}
	}
}

// TestHeapAccessOrderPinned pins both word-store heaps' exact accesses: the
// same seeded insert/extract mix, filled on one node or rank and drained on
// the other after a barrier, must end at the same virtual clocks and (for
// Argo) the same read and write misses as the recorded run.
func TestHeapAccessOrderPinned(t *testing.T) {
	const ops = 1500

	c := dsmCluster()
	dh := NewDSMHeap(c, 2*ops)
	var dsmClocks [2]sim.Time
	c.Run(1, func(th *core.Thread) {
		rng := rand.New(rand.NewSource(int64(20150615 + th.Node)))
		insert := func(k int64) { dh.Insert(th, k) }
		extract := func() { dh.ExtractMin(th) }
		if th.Node == 0 {
			heapMix(rng, ops, true, insert, extract)
		}
		th.Barrier()
		if th.Node == 1 {
			heapMix(rng, ops, false, insert, extract)
		}
		dsmClocks[th.Node] = th.P.Now()
	})
	st := c.Stats()
	c.Close()

	w := pgas.NewWorld(wloadFabric(2), 1)
	ph := NewPGASHeap(w, 2*ops)
	var pgasClocks [2]sim.Time
	w.Run(func(r *pgas.Rank) {
		rng := rand.New(rand.NewSource(int64(20150615 + r.ID)))
		insert := func(k int64) { ph.Insert(r, k) }
		extract := func() { ph.ExtractMin(r) }
		if r.ID == 0 {
			ph.Init(r)
			heapMix(rng, ops, true, insert, extract)
		}
		r.Barrier()
		if r.ID == 1 {
			heapMix(rng, ops, false, insert, extract)
		}
		pgasClocks[r.ID] = r.P.Now()
	})

	if want := [2]sim.Time{128319, 347065}; dsmClocks != want {
		t.Errorf("DSM heap clocks %v, want %v", dsmClocks, want)
	}
	if st.ReadMisses != 4 || st.WriteMisses != 12 {
		t.Errorf("DSM heap read/write misses %d/%d, want 4/12", st.ReadMisses, st.WriteMisses)
	}
	if want := [2]sim.Time{1969392, 94755295}; pgasClocks != want {
		t.Errorf("PGAS heap clocks %v, want %v", pgasClocks, want)
	}
}
