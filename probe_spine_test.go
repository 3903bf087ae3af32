package argo_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"argo"
	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/locks"
	"argo/internal/probe"
)

// kindTally is a sink counting the events of each kind.
type kindTally struct {
	mu sync.Mutex
	n  [probe.NumKinds]int
}

func (k *kindTally) Observe(e probe.Event) {
	k.mu.Lock()
	k.n[e.Kind]++
	k.mu.Unlock()
}

// observing runs fn with every cluster it builds reporting into sinks.
func observing(fn func(), sinks ...probe.Sink) {
	core.ConfigHook = func(cfg *core.Config) { cfg.Observers = append(cfg.Observers, sinks...) }
	defer func() { core.ConfigHook = nil }()
	fn()
}

// TestTraceOrderIsTotal: the trace files and the saved log of two same-seed
// runs are the same bytes. The crash ring's line fetches and fences emit many
// events that tie on (time, node, kind); an order that stops there leaves them
// in host order.
func TestTraceOrderIsTotal(t *testing.T) {
	run := func() (files [3][]byte) {
		tr := argo.NewTracer(0)
		observing(func() { goldenRing(t, goldenCrashSpec) }, tr)
		for i, write := range []func(io.Writer) error{tr.WriteText, tr.WriteCSV, tr.WriteLog} {
			var b bytes.Buffer
			if err := write(&b); err != nil {
				t.Fatal(err)
			}
			files[i] = b.Bytes()
		}
		return files
	}
	first := run()
	if len(first[0]) == 0 {
		t.Fatal("empty trace")
	}
	for i := 0; i < 3; i++ {
		again := run()
		for f, name := range []string{"text", "csv", "log"} {
			if !bytes.Equal(first[f], again[f]) {
				t.Fatalf("run %d: same seed, different %s file", i+2, name)
			}
		}
	}
}

// contendedLocks orders three threads on the host so that they meet the
// lock events an uncontended pass never sees, on every schedule: node 1,
// woken by a flag raised inside node 0's critical section, asks for the mutex
// when its clock is still behind node 0's release (a ticket wait); a second thread of node 0 delegates a section while the first
// is its node's HQDL helper. A fault verdict is a function of an operation's
// coordinates, so under this plan node 1's lock-word atomic fails its first
// issue and is reissued.
func contendedLocks() {
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	c := argo.MustNewCluster(cfg, argo.WithChaos("atomicfail=0.5,seed=1"))
	mu, hq, flag := locks.NewDSMMutex(c, 0), locks.NewHQDLock(c), argo.NewFlag(c, 0)
	released, helping, queued := make(chan struct{}), make(chan struct{}), make(chan struct{})
	c.Run(2, func(th *argo.Thread) {
		switch {
		case th.Node == 0 && th.Local == 0:
			mu.Lock(th)
			flag.Signal(th)
			th.Compute(100_000)
			mu.Unlock(th)
			close(released)
			hq.DelegateWait(th, func(*argo.Thread) {
				close(helping)
				<-queued
			})
		case th.Node == 0 && th.Local == 1:
			<-helping
			wait := hq.DelegateAsync(th, func(*argo.Thread) {})
			close(queued)
			wait(th)
		case th.Node == 1 && th.Local == 0:
			flag.Wait(th) // polls the flag word: a remote read
			<-released
			mu.Lock(th)
			mu.Unlock(th)
		}
		th.Barrier()
	})
}

// deadHolder has node 1 take a mutex and die at its release safe point, lease
// held: the lease expires and the next acquirer pays the excision.
func deadHolder(sinks ...probe.Sink) {
	cfg := argo.DefaultConfig(3)
	cfg.MemoryBytes = 4 << 20
	cfg.Observers = append(cfg.Observers, sinks...)
	c := argo.MustNewCluster(cfg, argo.WithChaos("crashat=1@2,crashpoints=lock,seed=1"))
	slot := c.AllocI64(1)         // homed at node 0,
	mu := locks.NewDSMMutex(c, 2) // the lock word at node 2: every passage goes remote
	c.Run(1, func(th *argo.Thread) {
		if th.Node == 1 {
			mu.Lock(th)
			th.Barrier()
			mu.Unlock(th) // unwinds at the safe point
			return
		}
		th.Barrier()
		mu.Lock(th)
		th.SetI64(slot, 0, th.GetI64(slot, 0)+1)
		mu.Unlock(th)
	})
}

// tightCache runs naive P/S classification over a four-page cache and a
// two-page write buffer under heavy drops: private pages are checkpointed,
// refills evict, the buffer overflows into single posted writes, lost
// writebacks are reissued — and the initialization phase ends with a
// classification reset.
func tightCache() {
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 1 << 20
	cfg.Mode = coherence.ModePS
	cfg.CacheLines, cfg.PagesPerLine, cfg.WriteBufferPages = 4, 1, 2
	c := argo.MustNewCluster(cfg, argo.WithChaos("drop=0.3,seed=1"))
	const pages = 32
	words := cfg.PageSize / 8
	xs := c.AllocI64(pages * words)
	c.Run(1, func(th *argo.Thread) {
		for pg := th.Node; pg < pages; pg += 2 { // pages of one's own: private
			th.SetI64(xs, pg*words, int64(pg))
		}
		th.InitDone()
		for pg := 0; pg < pages; pg++ { // everybody's pages: shared, two writers
			th.SetI64(xs, pg*words+1+th.Node, int64(pg))
		}
		th.Barrier()
	})
}

// TestEveryKindHasAnEmitter: every declared kind is emitted by some layer. A
// kind nobody emits is a promise the observers cannot keep (the trace once
// declared four such kinds for locks and barriers).
func TestEveryKindHasAnEmitter(t *testing.T) {
	var seen kindTally
	observing(func() {
		goldenRing(t, goldenCrashSpec)
		goldenRing(t, "partition=0.15,partdur=2,seed=7")
		goldenLocks()
		contendedLocks()
		deadHolder()
		tightCache()
	}, &seen)
	for k := probe.Kind(0); k < probe.NumKinds; k++ {
		if seen.n[k] == 0 {
			t.Errorf("no %s event in any scenario", k)
		}
	}
}

// streamSink keeps the events it is handed, in arrival order.
type streamSink struct {
	mu sync.Mutex
	ev []probe.Event
}

func (s *streamSink) Observe(e probe.Event) {
	s.mu.Lock()
	s.ev = append(s.ev, e)
	s.mu.Unlock()
}

// TestSinkNeedsNoLayerChange: a sink written here, appended to
// Config.Observers, hears page events, remote operations, lock edges and
// membership transitions of one run in one stream — enough to answer, with no
// code outside this test, a question none of the three stock views can: how
// many remote operations did each lock passage cost its thread?
func TestSinkNeedsNoLayerChange(t *testing.T) {
	var s streamSink
	deadHolder(&s)
	var pages, ops, edges, members int
	type lane struct{ node, tid int }
	opEnds := map[lane][]int64{}
	for _, e := range s.ev {
		switch k := e.Kind; {
		case k.Paged():
			pages++
		case k >= probe.OpRead && k <= probe.OpRegBurst:
			ops++
			opEnds[lane{e.Node, e.Tid}] = append(opEnds[lane{e.Node, e.Tid}], e.T)
		case k == probe.TicketRelease || k == probe.LeaseExpired || k == probe.TicketWait || k == probe.TicketRecover:
			edges++
		case k == probe.Crash || k == probe.Excise:
			members++
		}
	}
	if pages == 0 || ops == 0 || edges == 0 || members == 0 {
		t.Fatalf("one stream should carry it all: %d page events, %d remote operations, %d lock edges, %d membership transitions",
			pages, ops, edges, members)
	}
	passages := 0
	for _, acq := range s.ev {
		if acq.Kind != probe.LockAcquire {
			continue
		}
		for _, rel := range s.ev {
			if rel.Kind != probe.LockRelease || rel.Key != acq.Key || rel.Node != acq.Node || rel.Tid != acq.Tid || rel.Start != acq.T {
				continue
			}
			passages++
			remote := 0
			for _, end := range opEnds[lane{acq.Node, acq.Tid}] {
				if end > acq.Start && end <= rel.T {
					remote++
				}
			}
			// The ticket atomic at least; a survivor also fetches and
			// downgrades the counter's page, the recoverer pays the excision.
			if remote == 0 {
				t.Errorf("node %d's passage [%d, %d] shows no remote operation", acq.Node, acq.Start, rel.T)
			}
		}
	}
	if passages != 3 {
		t.Fatalf("%d complete lock passages in the stream, want 3 (the doomed holder's and two survivors')", passages)
	}
}
