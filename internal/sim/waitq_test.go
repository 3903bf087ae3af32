package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// gate is the smallest lock over a WaitQueue: what every FIFO lock in
// internal/locks and pgas does with it, minus the cost model.
type gate struct {
	mu     sync.Mutex
	locked bool
	q      WaitQueue
}

func (g *gate) lock(tag int) Grant {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.locked {
		return g.q.Park(&g.mu, tag)
	}
	g.locked = true
	return Grant{Granted: true}
}

func (g *gate) unlock() {
	g.mu.Lock()
	next := g.q.Pop()
	if g.locked = next != nil; g.locked {
		next.Granted = true
	}
	g.mu.Unlock()
	next.Wake()
}

func (g *gate) parked() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.q.Len()
}

// parkN parks n goroutines behind the held gate, tagged 0..n-1 in that
// order, and returns the channel their grants arrive on.
func parkN(g *gate, n int) <-chan [2]int {
	out := make(chan [2]int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			gr := g.lock(i)
			granted := 0
			if gr.Granted {
				granted = 1
			}
			out <- [2]int{i, granted}
		}(i)
		for g.parked() != i+1 {
			runtime.Gosched()
		}
	}
	return out
}

func TestWaitQueueFIFO(t *testing.T) {
	g := &gate{}
	g.lock(-1)
	out := parkN(g, 5)
	for want := 0; want < 5; want++ {
		g.unlock()
		if got := <-out; got != [2]int{want, 1} {
			t.Fatalf("hand-off %d went to %v, want waiter %d granted", want, got, want)
		}
	}
	g.unlock()
	if g.locked || g.q.Len() != 0 {
		t.Fatalf("gate not clean: locked=%v parked=%d", g.locked, g.q.Len())
	}
	var nilWaiter *Waiter
	nilWaiter.Wake() // what unlock just did with an empty queue
}

// TestWaitQueuePruneKeepsOrderAndRecycles: WakeAll wakes exactly the tagged
// waiters, ungranted, as a lock prunes a dead node's; the others keep their
// order; parks take their Waiters from the free list, last handed back first;
// and a recycled Waiter that last carried a grant carries none when WakeAll
// wakes it.
func TestWaitQueuePruneKeepsOrderAndRecycles(t *testing.T) {
	g := &gate{}
	g.lock(-1)
	out := parkN(g, 1)
	g.unlock() // waiter 0 granted: its Waiter is now the free list's last
	if got := <-out; got != [2]int{0, 1} {
		t.Fatalf("warm-up hand-off: %v", got)
	}
	w := waiters.Get()
	waiters.Put(w)

	out = parkN(g, 4) // tags 0..3 behind waiter 0's hold; tag 0 reuses w
	if g.q.parked[0] != w {
		t.Fatal("the free list's last waiter was not reused")
	}
	g.mu.Lock()
	g.q.parked[2].tag = 0 // two waiters of the doomed tag, not adjacent
	g.q.WakeAll(0)
	g.mu.Unlock()
	for i := 0; i < 2; i++ {
		if got := <-out; got[1] != 0 || (got[0] != 0 && got[0] != 2) {
			t.Fatalf("pruned wake-up %v, want waiters 0 and 2 ungranted", got)
		}
	}
	if g.parked() != 2 {
		t.Fatalf("%d waiters left parked, want 2", g.parked())
	}
	granted := map[*Waiter]bool{}
	for _, want := range []int{1, 3} {
		g.mu.Lock()
		granted[g.q.parked[0]] = true
		g.mu.Unlock()
		g.unlock()
		if got := <-out; got != [2]int{want, 1} {
			t.Fatalf("after prune the hand-off went to %v, want waiter %d granted", got, want)
		}
	}
	// All four Waiters are the free list's last four now (a waiter hands its
	// Waiter back before its lock call returns), two of them last granted:
	// the next four parks reuse them, and waking them all, as a barrier does,
	// wakes them ungranted.
	out = parkN(g, 4)
	g.mu.Lock()
	reused := 0
	for _, p := range g.q.parked {
		if granted[p] {
			reused++
		}
		p.tag = 0
	}
	g.q.WakeAll(0)
	g.mu.Unlock()
	if reused != 2 {
		t.Fatalf("%d of the two granted Waiters were parked again, want both", reused)
	}
	for i := 0; i < 4; i++ {
		if got := <-out; got[1] != 0 {
			t.Fatalf("WakeAll woke waiter %d granted: a recycled Waiter kept its Grant", got[0])
		}
	}
	if g.parked() != 0 {
		t.Fatalf("%d waiters left parked after WakeAll", g.parked())
	}
}

// TestAllocFreeWaitQueueHandoff: two goroutines pass the gate back and
// forth, each releasing only once the other is parked behind it, so every
// passage parks, pops and wakes — on Waiters from the free list, allocating
// nothing.
func TestAllocFreeWaitQueueHandoff(t *testing.T) {
	g := &gate{}
	var stop atomic.Bool
	passage := func() {
		g.lock(0)
		for g.parked() == 0 && !stop.Load() {
			runtime.Gosched()
		}
		g.unlock()
	}
	done := make(chan struct{})
	go func() {
		for !stop.Load() {
			passage()
		}
		close(done)
	}()
	for i := 0; i < 20; i++ {
		passage()
	}
	allocs := testing.AllocsPerRun(200, passage)
	stop.Store(true)
	<-done
	if allocs != 0 {
		t.Fatalf("a contended hand-off allocated %.1f times, want 0", allocs)
	}
}
