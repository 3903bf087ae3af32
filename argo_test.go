package argo_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"argo"
	"argo/internal/coherence"
	"argo/internal/mem"
	"argo/internal/probe"
	"argo/internal/trace"
)

func smallConfig(nodes int, mode coherence.Mode) argo.Config {
	cfg := argo.DefaultConfig(nodes)
	cfg.MemoryBytes = 1 << 20
	cfg.Mode = mode
	return cfg
}

func TestSingleNodeRoundTrip(t *testing.T) {
	c := argo.MustNewCluster(smallConfig(1, coherence.ModePS3))
	xs := c.AllocF64(1000)
	c.Run(4, func(t *argo.Thread) {
		for i := t.Rank; i < xs.Len; i += t.NT {
			t.SetF64(xs, i, float64(i)*1.5)
		}
		t.Barrier()
		for i := 0; i < xs.Len; i++ {
			_ = i
		}
	})
	got := c.DumpF64(xs)
	for i, v := range got {
		if v != float64(i)*1.5 {
			t.Fatalf("xs[%d] = %v, want %v", i, v, float64(i)*1.5)
		}
	}
}

func TestProducerConsumerAcrossNodes(t *testing.T) {
	for _, mode := range []coherence.Mode{coherence.ModeS, coherence.ModePS, coherence.ModePS3} {
		t.Run(mode.String(), func(t *testing.T) {
			c := argo.MustNewCluster(smallConfig(2, mode))
			xs := c.AllocI64(4096)
			errs := make(chan string, 16)
			c.Run(2, func(th *argo.Thread) {
				if th.Node == 0 { // one writer per element: the program is DRF
					for i := th.Local; i < xs.Len; i += 2 {
						th.SetI64(xs, i, int64(i*i))
					}
				}
				th.Barrier()
				if th.Node == 1 {
					for i := th.Local; i < xs.Len; i += 2 {
						if got := th.GetI64(xs, i); got != int64(i*i) {
							select {
							case errs <- fmt.Sprintf("mode %v: xs[%d] = %d, want %d", mode, i, got, i*i):
							default:
							}
							return
						}
					}
				}
				th.Barrier()
			})
			select {
			case e := <-errs:
				t.Fatal(e)
			default:
			}
		})
	}
}

func TestFalseSharingMergesThroughDiffs(t *testing.T) {
	for _, mode := range []coherence.Mode{coherence.ModeS, coherence.ModePS, coherence.ModePS3} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig(4, mode)
			c := argo.MustNewCluster(cfg)
			// 512 int64s fit exactly one 4 KB page: all four nodes write
			// interleaved elements of the same page in the same epoch.
			xs := c.AllocI64(512)
			c.Run(1, func(th *argo.Thread) {
				for i := th.Node; i < xs.Len; i += 4 {
					th.SetI64(xs, i, int64(1000*th.Node+i))
				}
				th.Barrier()
				// Every node verifies the merged page.
				for i := 0; i < xs.Len; i++ {
					want := int64(1000*(i%4) + i)
					if got := th.GetI64(xs, i); got != want {
						panic(fmt.Sprintf("mode %v node %d: xs[%d]=%d want %d", mode, th.Node, i, got, want))
					}
				}
				th.Barrier()
			})
			got := c.DumpI64(xs)
			for i, v := range got {
				if want := int64(1000*(i%4) + i); v != want {
					t.Fatalf("home xs[%d] = %d, want %d", i, v, want)
				}
			}
		})
	}
}

func TestClassificationFiltersSI(t *testing.T) {
	// Read-only shared data must survive barriers under PS3 but not S.
	run := func(mode coherence.Mode) (selfInv, filtered, misses int64) {
		cfg := smallConfig(2, mode)
		c := argo.MustNewCluster(cfg)
		xs := c.AllocF64(2048)
		init := make([]float64, 2048)
		for i := range init {
			init[i] = float64(i)
		}
		c.InitF64(xs, init)
		c.Run(1, func(th *argo.Thread) {
			for epoch := 0; epoch < 5; epoch++ {
				for i := 0; i < xs.Len; i += 64 {
					if got := th.GetF64(xs, i); got != float64(i) {
						panic("stale read of read-only data")
					}
				}
				th.Barrier()
			}
		})
		s := c.Stats()
		return s.SelfInvalidations, s.SIFiltered, s.ReadMisses
	}
	sInv, _, sMiss := run(coherence.ModeS)
	pInv, pFilt, pMiss := run(coherence.ModePS3)
	if sInv == 0 {
		t.Fatal("mode S never self-invalidated read-only pages")
	}
	if pInv != 0 {
		t.Fatalf("mode PS3 self-invalidated %d read-only pages", pInv)
	}
	if pFilt == 0 {
		t.Fatal("mode PS3 reported no SI filtering")
	}
	if pMiss >= sMiss {
		t.Fatalf("PS3 misses (%d) not fewer than S misses (%d)", pMiss, sMiss)
	}
}

func TestPrivatePagesSurviveBarriersUnderPS3(t *testing.T) {
	cfg := smallConfig(2, coherence.ModePS3)
	c := argo.MustNewCluster(cfg)
	xs := c.AllocF64(4096) // 2048 per node, disjoint pages per node
	c.Run(1, func(th *argo.Thread) {
		lo, hi := th.Node*2048, (th.Node+1)*2048
		for epoch := 0; epoch < 4; epoch++ {
			for i := lo; i < hi; i++ {
				th.SetF64(xs, i, float64(epoch*10000+i))
			}
			th.Barrier()
			for i := lo; i < hi; i += 100 {
				if got := th.GetF64(xs, i); got != float64(epoch*10000+i) {
					panic("private page lost its data")
				}
			}
			th.Barrier()
		}
	})
	s := c.Stats()
	if s.SelfInvalidations != 0 {
		t.Fatalf("private pages were self-invalidated %d times", s.SelfInvalidations)
	}
	// Each node touches 2048/512 = 4-page-aligned... every page only once
	// (cold): misses must be bounded by the footprint, not epochs.
	pages := int64(4096 * 8 / cfg.PageSize)
	if s.ReadMisses > pages {
		t.Fatalf("read misses %d exceed cold footprint %d: privates refetched", s.ReadMisses, pages)
	}
}

func TestSingleWriterKeepsPageConsumersInvalidate(t *testing.T) {
	cfg := smallConfig(2, coherence.ModePS3)
	c := argo.MustNewCluster(cfg)
	xs := c.AllocI64(512) // one page
	c.Run(1, func(th *argo.Thread) {
		for epoch := int64(0); epoch < 4; epoch++ {
			if th.Node == 0 {
				for i := 0; i < xs.Len; i++ {
					th.SetI64(xs, i, epoch*1000+int64(i))
				}
			}
			th.Barrier()
			// Consumer must see each epoch's fresh values.
			if th.Node == 1 {
				for i := 0; i < xs.Len; i += 7 {
					if got := th.GetI64(xs, i); got != epoch*1000+int64(i) {
						panic(fmt.Sprintf("epoch %d: stale xs[%d] = %d", epoch, i, got))
					}
				}
			}
			th.Barrier()
		}
	})
	s := c.Stats()
	// The producer (single writer) never self-invalidates its page; the
	// consumer invalidates and refetches it every epoch.
	if n0 := c.Fab.NodeStats(0).SelfInvalidations.Load(); n0 != 0 {
		t.Fatalf("producer self-invalidated %d times, want 0", n0)
	}
	if n1 := c.Fab.NodeStats(1).SelfInvalidations.Load(); n1 == 0 {
		t.Fatal("consumer never self-invalidated the producer's page")
	}
	_ = s
}

func TestWriteBufferOverflowStillCorrect(t *testing.T) {
	cfg := smallConfig(2, coherence.ModePS3)
	cfg.WriteBufferPages = 2 // brutal: constant overflow writebacks
	c := argo.MustNewCluster(cfg)
	xs := c.AllocI64(8192) // 16 pages
	c.Run(2, func(th *argo.Thread) {
		for i := th.Rank; i < xs.Len; i += th.NT {
			th.SetI64(xs, i, int64(i)*3)
		}
		th.Barrier()
		for i := th.Rank; i < xs.Len; i += th.NT {
			if got := th.GetI64(xs, (i+4096)%xs.Len); got != int64((i+4096)%xs.Len)*3 {
				panic("wrong value after write-buffer thrash")
			}
		}
		th.Barrier()
	})
	if c.Stats().Writebacks == 0 {
		t.Fatal("expected overflow writebacks")
	}
}

func TestCacheConflictEvictions(t *testing.T) {
	cfg := smallConfig(2, coherence.ModePS3)
	cfg.CacheLines = 2
	cfg.PagesPerLine = 2 // 4-page cache per node vs a 32-page array
	c := argo.MustNewCluster(cfg)
	xs := c.AllocI64(16384)
	c.Run(1, func(th *argo.Thread) {
		lo, hi := th.Node*8192, (th.Node+1)*8192
		for i := lo; i < hi; i++ {
			th.SetI64(xs, i, int64(i)+7)
		}
		th.Barrier()
		// Read the other node's half through the tiny cache.
		olo := (lo + 8192) % 16384
		for i := olo; i < olo+8192; i += 64 {
			if got := th.GetI64(xs, i); got != int64(i)+7 {
				panic("conflict eviction lost data")
			}
		}
		th.Barrier()
	})
}

func TestFlagSignalWait(t *testing.T) {
	c := argo.MustNewCluster(smallConfig(2, coherence.ModePS3))
	xs := c.AllocI64(100)
	f := argo.NewFlag(c, 0)
	c.Run(1, func(th *argo.Thread) {
		if th.Node == 0 {
			for i := 0; i < 100; i++ {
				th.SetI64(xs, i, int64(i)+42)
			}
			f.Signal(th)
		} else {
			f.Wait(th)
			for i := 0; i < 100; i++ {
				if got := th.GetI64(xs, i); got != int64(i)+42 {
					panic(fmt.Sprintf("flag consumer saw stale xs[%d]=%d", i, got))
				}
			}
		}
	})
}

func TestInitDoneResetsClassification(t *testing.T) {
	c := argo.MustNewCluster(smallConfig(2, coherence.ModePS3))
	xs := c.AllocI64(1024)
	c.Run(1, func(th *argo.Thread) {
		// Init: node 0 writes everything (would classify pages P/SW at 0).
		if th.Node == 0 {
			for i := 0; i < xs.Len; i++ {
				th.SetI64(xs, i, int64(i))
			}
		}
		th.InitDone()
		// After the reset node 1 reading must classify pages as its own
		// private pages if it is the sole reader.
		if th.Node == 1 {
			for i := 0; i < xs.Len; i++ {
				if th.GetI64(xs, i) != int64(i) {
					panic("init data lost by classification reset")
				}
			}
		}
		th.Barrier()
	})
	// After the run, the pages node 1 read exclusively should be Private
	// to node 1 in the home directory.
	page := c.Space.PageOf(xs.At(0))
	e := c.Dir.Home(page)
	if e.R.Count() != 1 || !e.R.Has(1) {
		t.Fatalf("post-reset readers = %v, want {1}", e.R)
	}
}

func TestDecayReclassification(t *testing.T) {
	cfg := smallConfig(2, coherence.ModePS3)
	cfg.DecayEpochs = 3
	c := argo.MustNewCluster(cfg)
	xs := c.AllocI64(2048)
	c.Run(1, func(th *argo.Thread) {
		for epoch := 0; epoch < 10; epoch++ {
			for i := th.Node; i < xs.Len; i += 2 {
				th.SetI64(xs, i, int64(epoch*100000+i))
			}
			th.Barrier()
			for i := 0; i < xs.Len; i += 17 {
				want := int64(epoch*100000 + i)
				if got := th.GetI64(xs, i); got != want {
					panic(fmt.Sprintf("decay broke coherence: xs[%d]=%d want %d", i, got, want))
				}
			}
			th.Barrier()
		}
	})
}

// TestRandomDRFPrograms is the core correctness property: random data-race-
// free programs (disjoint writers per epoch, reads of the previous epoch's
// values after a barrier) must observe exactly the values happens-before
// dictates, under every classification mode, tiny caches, tiny write
// buffers, both home policies and both line sizes.
func TestRandomDRFPrograms(t *testing.T) {
	type params struct {
		seed   int64
		mode   coherence.Mode
		wb     int
		lines  int
		ppl    int
		nodes  int
		policy mem.Policy
	}
	runProgram := func(pr params) error {
		cfg := argo.DefaultConfig(pr.nodes)
		cfg.MemoryBytes = 1 << 20
		cfg.PageSize = 256 // many pages, heavy false sharing
		cfg.Mode = pr.mode
		cfg.WriteBufferPages = pr.wb
		cfg.CacheLines = pr.lines
		cfg.PagesPerLine = pr.ppl
		cfg.Policy = pr.policy
		c := argo.MustNewCluster(cfg)
		const n = 1024
		xs := c.AllocI64(n)
		const tpn = 2
		nt := pr.nodes * tpn
		rng := rand.New(rand.NewSource(pr.seed))
		const epochs = 6
		// owner[e][i]: the thread that writes element i in epoch e.
		owner := make([][]int, epochs)
		for e := range owner {
			owner[e] = make([]int, n)
			for i := range owner[e] {
				owner[e][i] = rng.Intn(nt)
			}
		}
		val := func(e, i int) int64 { return int64(e)*1_000_000 + int64(i)*31 }
		errCh := make(chan error, nt)
		c.Run(tpn, func(th *argo.Thread) {
			myRng := rand.New(rand.NewSource(pr.seed ^ int64(th.Rank*7919)))
			for e := 0; e < epochs; e++ {
				for i := 0; i < n; i++ {
					if owner[e][i] == th.Rank {
						th.SetI64(xs, i, val(e, i))
					}
				}
				th.Barrier()
				// Read a random sample; everyone must see this epoch's values.
				for k := 0; k < 64; k++ {
					i := myRng.Intn(n)
					if got := th.GetI64(xs, i); got != val(e, i) {
						select {
						case errCh <- fmt.Errorf("%+v epoch %d: thread %d read xs[%d]=%d, want %d",
							pr, e, th.Rank, i, got, val(e, i)):
						default:
						}
						return
					}
				}
				th.Barrier()
			}
		})
		select {
		case err := <-errCh:
			return err
		default:
		}
		// Home truth must hold the final epoch everywhere.
		final := c.DumpI64(xs)
		for i, v := range final {
			if want := val(epochs-1, i); v != want {
				return fmt.Errorf("%+v: home xs[%d]=%d, want %d", pr, i, v, want)
			}
		}
		return nil
	}

	modes := []coherence.Mode{coherence.ModeS, coherence.ModePS, coherence.ModePS3}
	seed := int64(0)
	for _, mode := range modes {
		for _, wb := range []int{1, 8, 4096} {
			for _, ppl := range []int{1, 4} {
				pr := params{
					seed: seed, mode: mode, wb: wb, lines: 8, ppl: ppl,
					nodes: 3, policy: mem.Interleaved,
				}
				if seed%2 == 1 {
					pr.policy = mem.Blocked
				}
				seed++
				if err := runProgram(pr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestDRFQuick drives the same program shape through testing/quick seeds
// with the default geometry.
func TestDRFQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, swSuppress bool) bool {
		cfg := argo.DefaultConfig(2)
		cfg.MemoryBytes = 1 << 20
		cfg.PageSize = 512
		cfg.SWDiffSuppress = swSuppress
		c := argo.MustNewCluster(cfg)
		const n = 512
		xs := c.AllocI64(n)
		rng := rand.New(rand.NewSource(seed))
		owner := make([]int, n)
		for i := range owner {
			owner[i] = rng.Intn(4)
		}
		ok := true
		c.Run(2, func(th *argo.Thread) {
			for e := 0; e < 4; e++ {
				for i := range owner {
					if owner[i] == th.Rank {
						th.SetI64(xs, i, int64(e*10000+i))
					}
				}
				th.Barrier()
				for i := 0; i < n; i += 13 {
					if th.GetI64(xs, i) != int64(e*10000+i) {
						ok = false
					}
				}
				th.Barrier()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestTracerCapturesProtocol attaches a tracer and verifies that the
// protocol's event stream tells the expected story: misses before
// writebacks, fences at the barrier, invalidations only for shared pages.
func TestTracerCapturesProtocol(t *testing.T) {
	tr := trace.New(0)
	c := argo.MustNewCluster(smallConfig(2, coherence.ModePS3), argo.WithTracer(tr))
	xs := c.AllocI64(1024)
	c.Run(1, func(th *argo.Thread) {
		if th.Node == 0 {
			for i := 0; i < xs.Len; i++ {
				th.SetI64(xs, i, int64(i))
			}
		}
		th.Barrier()
		if th.Node == 1 {
			for i := 0; i < xs.Len; i += 64 {
				_ = th.GetI64(xs, i)
			}
		}
		th.Barrier()
	})
	sum := tr.Summary()
	if sum[probe.WriteMiss] == 0 || sum[probe.LineFetch] == 0 {
		t.Fatalf("missing miss events: %v", sum)
	}
	if sum[probe.Writeback] == 0 {
		t.Fatalf("missing writebacks: %v", sum)
	}
	if sum[probe.SIFence] == 0 || sum[probe.SDFence] == 0 {
		t.Fatalf("missing fences: %v", sum)
	}
	// Virtual timestamps must be non-decreasing in the merged stream.
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("trace not time-sorted at %d", i)
		}
	}
	// The trace agrees with the counter: write-allocate misses (node 0's
	// stores) are read misses in both.
	if got, want := int64(sum[probe.ReadMiss]), c.Stats().ReadMisses; got != want || want == 0 {
		t.Fatalf("trace counted %d read misses, stats %d", got, want)
	}
}

// TestParanoiaMode runs a migratory workload with invariant checks at every
// barrier episode.
func TestParanoiaMode(t *testing.T) {
	for _, mode := range []coherence.Mode{coherence.ModeS, coherence.ModePS, coherence.ModePS3} {
		cfg := smallConfig(3, mode)
		cfg.Paranoia = true
		c := argo.MustNewCluster(cfg)
		xs := c.AllocI64(2048)
		c.Run(2, func(th *argo.Thread) {
			for e := 0; e < 4; e++ {
				for i := th.Rank; i < xs.Len; i += th.NT {
					th.SetI64(xs, i, int64(e*100+i))
				}
				th.Barrier() // panics if any invariant breaks
			}
		})
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("mode %v: post-run invariants: %v", mode, err)
		}
	}
}
