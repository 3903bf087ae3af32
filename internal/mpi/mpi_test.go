package mpi

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"argo/internal/fabric"
	"argo/internal/sim"
)

func world(nodes, rpn int) *World {
	fab := fabric.MustNew(sim.Topology{Nodes: nodes, Sockets: 4, CoresPerSocket: 4}, fabric.DefaultParams())
	return NewWorld(fab, rpn)
}

func TestSendRecv(t *testing.T) {
	w := world(2, 2)
	w.Run(func(r *Rank) {
		switch r.ID {
		case 0:
			r.Send(3, []float64{1, 2, 3})
		case 3:
			got := r.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				panic("payload corrupted")
			}
			if r.P.Now() == 0 {
				panic("remote receive cost nothing")
			}
		}
	})
}

func TestSendRecvInOrder(t *testing.T) {
	w := world(2, 1)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 50; i++ {
				r.Send(1, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 50; i++ {
				if got := r.Recv(0); got[0] != float64(i) {
					panic("messages reordered")
				}
			}
		}
	})
}

func TestAllgatherRing(t *testing.T) {
	f := func(nodesU, rpnU uint8) bool {
		nodes := int(nodesU)%6 + 1
		rpn := int(rpnU)%3 + 1
		w := world(nodes, rpn)
		ok := true
		w.Run(func(r *Rank) {
			mine := []float64{float64(r.ID * 10), float64(r.ID*10 + 1)}
			all := r.AllgatherRing(mine)
			if len(all) != 2*w.Size {
				ok = false
				return
			}
			for k := 0; k < w.Size; k++ {
				if all[2*k] != float64(k*10) || all[2*k+1] != float64(k*10+1) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterGather(t *testing.T) {
	w := world(2, 2)
	var gathered []float64
	w.Run(func(r *Rank) {
		var data []float64
		if r.ID == 0 {
			data = make([]float64, 4*3)
			for i := range data {
				data[i] = float64(i)
			}
		}
		mine := r.Scatter(0, data, 3)
		for i := range mine {
			mine[i] = mine[i] * 2
		}
		out := r.Gather(0, mine)
		if r.ID == 0 {
			gathered = out
		}
	})
	if len(gathered) != 12 {
		t.Fatalf("gathered %d elements", len(gathered))
	}
	for i, v := range gathered {
		if v != float64(i)*2 {
			t.Fatalf("gathered[%d] = %v, want %v", i, v, float64(i)*2)
		}
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	w := world(4, 2)
	var clocks [8]sim.Time
	w.Run(func(r *Rank) {
		r.Compute(sim.Time(r.ID) * 1000)
		r.Barrier()
		clocks[r.ID] = r.P.Now()
	})
	for i := 1; i < 8; i++ {
		if clocks[i] != clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
	if clocks[0] < 7000 {
		t.Fatalf("barrier released before slowest rank: %d", clocks[0])
	}
}

func TestIntraNodeSendIsCheaper(t *testing.T) {
	w := world(2, 2)
	var local, remote sim.Time
	w.Run(func(r *Rank) {
		payload := make([]float64, 1024)
		switch r.ID {
		case 0:
			r.Send(1, payload) // same node
			local = r.P.Now()
			base := r.P.Now()
			r.Send(2, payload) // other node
			remote = r.P.Now() - base
		case 1:
			r.Recv(0)
		case 2:
			r.Recv(0)
		}
	})
	if !(local < remote) {
		t.Fatalf("intra-node send (%d) not cheaper than inter-node (%d)", local, remote)
	}
	if math.IsNaN(float64(local)) {
		t.Fatal("unreachable")
	}
}

// TestNewWorldAllocatesPerRank: a world's mail is one inbox per rank, its
// FIFOs made by the first Send, not a buffered channel per pair of ranks (635
// MB at 32 nodes × 16 ranks).
func TestNewWorldAllocatesPerRank(t *testing.T) {
	fab := fabric.MustNew(sim.Topology{Nodes: 32, Sockets: 4, CoresPerSocket: 4}, fabric.DefaultParams())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := NewWorld(fab, 16)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 10<<20 {
		t.Fatalf("NewWorld of %d ranks allocated %d bytes, want under 10 MB", w.Size, got)
	}
}

// TestEagerExchange: two ranks each send the other 100 messages before their
// first Recv. Sends never block, so both finish; with a bounded mailbox both
// would fill it and wait for each other for ever.
func TestEagerExchange(t *testing.T) {
	const n = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		world(2, 1).Run(func(r *Rank) {
			peer := 1 - r.ID
			for i := 0; i < n; i++ {
				r.Send(peer, []float64{float64(i)})
			}
			for i := 0; i < n; i++ {
				if got := r.Recv(peer); got[0] != float64(i) {
					panic("messages reordered")
				}
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("two ranks that send before they receive deadlocked")
	}
}
