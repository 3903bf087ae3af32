package locks

import (
	"runtime"
	"sync"
	"testing"

	"argo/internal/fabric"
	"argo/internal/sim"
)

func TestHBOExclusion(t *testing.T) {
	exclusionTest(t, func(f *fabric.Fabric) NativeLock { return NewHBOLock(f) })
}

func TestHCLHExclusion(t *testing.T) {
	exclusionTest(t, func(f *fabric.Fabric) NativeLock { return NewHCLHLock(f) })
}

func TestHBOPrefersLocalSocket(t *testing.T) {
	f := testFab()
	l := NewHBOLock(f)
	topo := sim.Topology{Nodes: 1, Sockets: 4, CoresPerSocket: 4}
	g := sim.NewGroup(procs(topo, 16))
	g.Run(func(i int, p *sim.Proc) {
		for k := 0; k < 200; k++ {
			l.Lock(p)
			p.Advance(50)
			l.Unlock(p)
		}
	})
	s := f.NodeStats(0).Snapshot()
	if s.LockHandoversLocal <= s.LockHandoversRemote {
		t.Fatalf("HBO not keeping the lock on-socket: local=%d remote=%d",
			s.LockHandoversLocal, s.LockHandoversRemote)
	}
}

func TestHBOStreakBounded(t *testing.T) {
	f := testFab()
	l := NewHBOLock(f)
	l.MaxStreak = 4
	topo := sim.Topology{Nodes: 1, Sockets: 2, CoresPerSocket: 4}
	var m streakMeter
	var start sync.WaitGroup // all eight threads compete from the first acquisition
	start.Add(8)
	g := sim.NewGroup(procs(topo, 8))
	g.Run(func(i int, p *sim.Proc) {
		start.Done()
		start.Wait()
		for k := 0; k < 150; k++ {
			l.Lock(p)
			l.mu.Lock()
			queued := l.waiters.of(1-p.Socket).Len() > 0
			l.mu.Unlock()
			m.acquired(p.Socket, queued)
			l.Unlock(p)
		}
	})
	m.check(t, l.MaxStreak)
}

func TestHCLHServesSocketBatches(t *testing.T) {
	f := testFab()
	l := NewHCLHLock(f)
	topo := sim.Topology{Nodes: 1, Sockets: 4, CoresPerSocket: 4}
	var order []int
	g := sim.NewGroup(procs(topo, 16))
	g.Run(func(i int, p *sim.Proc) {
		for k := 0; k < 100; k++ {
			l.Lock(p)
			order = append(order, p.Socket)
			p.Advance(30)
			l.Unlock(p)
		}
	})
	if len(order) != 1600 {
		t.Fatalf("served %d acquisitions", len(order))
	}
	// Batching: the average same-socket run length must clearly exceed
	// what a socket-oblivious FIFO would produce (~1.3 with 4 sockets).
	runs, cur := 1, 1
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			runs++
			cur = 1
		} else {
			cur++
		}
	}
	_ = cur
	avgRun := float64(len(order)) / float64(runs)
	if avgRun < 2 {
		t.Fatalf("HCLH average same-socket run %.2f — not batching", avgRun)
	}
	s := f.NodeStats(0).Snapshot()
	if s.LockHandoversLocal <= s.LockHandoversRemote {
		t.Fatalf("HCLH handovers: local=%d remote=%d", s.LockHandoversLocal, s.LockHandoversRemote)
	}
}

func TestNUMALocksBeatPthreadsUnderContention(t *testing.T) {
	run := func(mk func(f *fabric.Fabric) NativeLock) sim.Time {
		f := testFab()
		l := mk(f)
		topo := sim.Topology{Nodes: 1, Sockets: 4, CoresPerSocket: 4}
		data := NewMigratoryData(HeapLinesForTest, 100)
		g := sim.NewGroup(procs(topo, 16))
		g.Run(func(i int, p *sim.Proc) {
			for k := 0; k < 150; k++ {
				l.Lock(p)
				data.Touch(p, f)
				l.Unlock(p)
				runtime.Gosched() // interleave, as the microbenchmark loop does
			}
		})
		return g.MaxNow()
	}
	pthread := run(func(f *fabric.Fabric) NativeLock { return NewPthreadMutex(f) })
	hbo := run(func(f *fabric.Fabric) NativeLock { return NewHBOLock(f) })
	hclh := run(func(f *fabric.Fabric) NativeLock { return NewHCLHLock(f) })
	if hbo >= pthread {
		t.Fatalf("HBO (%d) not faster than pthreads (%d)", hbo, pthread)
	}
	if hclh >= pthread {
		t.Fatalf("HCLH (%d) not faster than pthreads (%d)", hclh, pthread)
	}
}

// HeapLinesForTest mirrors the microbenchmark's working-set size.
const HeapLinesForTest = 12
