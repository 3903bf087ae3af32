package locks

import (
	"runtime"
	"sync"

	"argo/internal/fabric"
	"argo/internal/sim"
)

// socketQueues holds one parked-waiter FIFO per socket, made on first use.
type socketQueues map[int]*sim.WaitQueue

func (m socketQueues) of(sock int) *sim.WaitQueue {
	q := m[sock]
	if q == nil {
		q = new(sim.WaitQueue)
		m[sock] = q
	}
	return q
}

// HBOLock is the Hierarchical Back-Off lock of Radović and Hagersten
// (HPCA 2003), cited in §2.2: a test-and-set lock whose waiters back off
// more gently when the holder is on their own NUMA domain, so the lock
// statistically stays within a socket. Modeled as explicit same-socket
// preference on release, bounded by MaxStreak for fairness, with remote
// acquirers paying their longer back-off.
type HBOLock struct {
	fab *fabric.Fabric

	mu      sync.Mutex
	locked  bool
	h       holder
	waiters socketQueues // per socket, FIFO
	order   []int        // round-robin over sockets with waiters
	streak  int

	// MaxStreak bounds consecutive same-socket handovers.
	MaxStreak int
	// RemoteBackoff is the extra wake-up lag of a cross-socket acquirer
	// (it was sleeping in a long back-off when the lock freed).
	RemoteBackoff sim.Time
}

// NewHBOLock creates an HBO lock over fabric f.
func NewHBOLock(f *fabric.Fabric) *HBOLock {
	return &HBOLock{
		fab:           f,
		waiters:       socketQueues{},
		MaxStreak:     32,
		RemoteBackoff: 2 * f.P.SocketLatency,
	}
}

// Lock acquires the lock; same-socket waiters are favoured.
func (l *HBOLock) Lock(p *sim.Proc) {
	l.mu.Lock()
	crossed := false
	if l.locked {
		q := l.waiters.of(p.Socket)
		if q.Len() == 0 {
			l.order = append(l.order, p.Socket)
		}
		q.Park(&l.mu, p.Socket)
		crossed = l.h.valid && l.h.socket != p.Socket
	}
	l.locked = true
	l.h.acquired(p, l.fab)
	if crossed {
		p.Advance(l.RemoteBackoff)
	}
	l.mu.Unlock()
	runtime.Gosched()
}

// Unlock hands the lock over, preferring a waiter on the releaser's socket
// while the streak budget lasts.
func (l *HBOLock) Unlock(p *sim.Proc) {
	l.mu.Lock()
	l.h.released(p)
	var next *sim.Waiter
	pick := func(sock int) bool {
		q := l.waiters.of(sock)
		if next = q.Pop(); next == nil {
			return false
		}
		if q.Len() == 0 {
			for i, s := range l.order {
				if s == sock {
					l.order = append(l.order[:i], l.order[i+1:]...)
					break
				}
			}
		}
		return true
	}
	if l.streak < l.MaxStreak && pick(p.Socket) {
		l.streak++
		l.fab.NodeStats(p.Node).LockHandoversLocal.Add(1)
	} else {
		l.streak = 0
		picked := false
		for _, s := range append([]int(nil), l.order...) {
			if s != p.Socket && pick(s) {
				picked = true
				break
			}
		}
		if !picked {
			picked = pick(p.Socket) // only own-socket waiters left
		}
		if picked {
			l.fab.NodeStats(p.Node).LockHandoversRemote.Add(1)
		}
	}
	l.locked = next != nil
	l.mu.Unlock()
	next.Wake()
}

// HCLHLock is the hierarchical CLH lock of Luchangco, Nussbaum and Shavit
// (ICPP 2006), cited in §2.2: waiters enqueue on a per-socket CLH queue,
// and whole local queues are spliced into the global queue, so the lock
// serves socket-sized batches in FIFO-of-batches order.
type HCLHLock struct {
	fab *fabric.Fabric

	mu     sync.Mutex
	locked bool
	h      holder
	local  socketQueues   // accumulating per-socket queues
	batch  *sim.WaitQueue // the batch currently being served
	splice []int          // FIFO of sockets awaiting splice
}

// NewHCLHLock creates an HCLH lock over fabric f.
func NewHCLHLock(f *fabric.Fabric) *HCLHLock {
	return &HCLHLock{fab: f, local: socketQueues{}, batch: new(sim.WaitQueue)}
}

// Lock enqueues on the caller's socket queue and waits for its batch.
func (l *HCLHLock) Lock(p *sim.Proc) {
	l.mu.Lock()
	if l.locked {
		q := l.local.of(p.Socket)
		if q.Len() == 0 {
			l.splice = append(l.splice, p.Socket)
		}
		q.Park(&l.mu, p.Socket)
	}
	l.locked = true
	l.h.acquired(p, l.fab)
	l.mu.Unlock()
	runtime.Gosched()
}

// Unlock hands over within the current batch, splicing the next socket's
// whole local queue when the batch drains.
func (l *HCLHLock) Unlock(p *sim.Proc) {
	l.mu.Lock()
	l.h.released(p)
	if l.batch.Len() == 0 && len(l.splice) > 0 {
		// Splice the oldest waiting socket's entire queue as the new batch;
		// the drained one, pool and all, becomes that socket's next queue.
		sock := l.splice[0]
		l.splice = l.splice[1:]
		l.batch, l.local[sock] = l.local[sock], l.batch
		l.fab.NodeStats(p.Node).LockHandoversRemote.Add(1)
	} else if l.batch.Len() > 0 {
		l.fab.NodeStats(p.Node).LockHandoversLocal.Add(1)
	}
	next := l.batch.Pop()
	l.locked = next != nil
	l.mu.Unlock()
	next.Wake()
}
