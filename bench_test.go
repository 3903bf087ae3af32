// Benchmarks that regenerate the paper's tables and figures through the
// testing.B interface — one benchmark per table/figure, wrapping the same
// runners as cmd/argo-bench (in quick mode so `go test -bench=.` finishes
// in minutes; run `go run ./cmd/argo-bench` for the full sweeps), plus
// micro-benchmarks of the protocol's hot paths.
package argo_test

import (
	"fmt"
	"io"
	"testing"

	"argo"
	"argo/internal/harness"
	"argo/internal/mem"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard, true)
	}
}

func BenchmarkTable1Classification(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1Trends(b *testing.B)           { benchExperiment(b, "fig1") }
func BenchmarkFig7Bandwidth(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8Classification(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9WriteBuffer(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10Writebacks(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11LocksNative(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12LocksDSM(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13aLU(b *testing.B)             { benchExperiment(b, "fig13a") }
func BenchmarkFig13bNbody(b *testing.B)          { benchExperiment(b, "fig13b") }
func BenchmarkFig13cBlackscholes(b *testing.B)   { benchExperiment(b, "fig13c") }
func BenchmarkFig13dMM(b *testing.B)             { benchExperiment(b, "fig13d") }
func BenchmarkFig13eEP(b *testing.B)             { benchExperiment(b, "fig13e") }
func BenchmarkFig13fCG(b *testing.B)             { benchExperiment(b, "fig13f") }

// --- protocol hot-path micro-benchmarks ------------------------------------

func benchCluster(b *testing.B, nodes int) *argo.Cluster {
	b.Helper()
	cfg := argo.DefaultConfig(nodes)
	cfg.MemoryBytes = 16 << 20
	return argo.MustNewCluster(cfg)
}

// onRank0 runs body on rank 0 of a launch of c with one thread per node.
func onRank0(c *argo.Cluster, body func(t *argo.Thread)) {
	c.Run(1, func(t *argo.Thread) {
		if t.Rank == 0 {
			body(t)
		}
	})
}

// BenchmarkPageCacheHit measures the host-side cost of a cache-hitting
// 8-byte DSM read of one resident page (the per-access overhead this
// simulator adds over a real mprotect-based DSM, where hits are free).
func BenchmarkPageCacheHit(b *testing.B) {
	c := benchCluster(b, 1)
	xs := c.AllocF64(512)
	b.ResetTimer()
	onRank0(c, func(t *argo.Thread) {
		for i := 0; i < b.N; i++ {
			t.GetF64(xs, i&511)
		}
	})
}

// BenchmarkGetF64 measures scalar reads striding across a 64-page working
// set (the access-TLB working-set case: every access hits another entry).
func BenchmarkGetF64(b *testing.B) {
	c := benchCluster(b, 1)
	xs := c.AllocF64(1 << 15)
	mask := xs.Len - 1
	b.ResetTimer()
	onRank0(c, func(t *argo.Thread) {
		for i := 0; i < b.N; i++ {
			t.GetF64(xs, (i*17)&mask)
		}
	})
}

// BenchmarkSetF64 measures scalar writes striding across a 64-page working
// set (dirty hits on the lock-free write path after one miss per page).
func BenchmarkSetF64(b *testing.B) {
	c := benchCluster(b, 1)
	xs := c.AllocF64(1 << 15)
	mask := xs.Len - 1
	b.ResetTimer()
	onRank0(c, func(t *argo.Thread) {
		for i := 0; i < b.N; i++ {
			t.SetF64(xs, (i*17)&mask, float64(i))
		}
	})
}

// BenchmarkPageFault measures a cold page fetch (miss, line fetch,
// directory registration) end to end.
func BenchmarkPageFault(b *testing.B) {
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 512 << 20
	cfg.CacheLines = 1 << 16
	c := argo.MustNewCluster(cfg)
	xs := c.AllocF64(32 << 20 / 8)
	b.ResetTimer()
	onRank0(c, func(t *argo.Thread) {
		stride := 4096 / 8 * int(int64(cfg.PagesPerLine)) // one demand miss per line
		for i := 0; i < b.N; i++ {
			t.GetF64(xs, (i*stride)%(xs.Len-1))
		}
	})
}

// BenchmarkSIFence measures the acquire-fence sweep over a populated cache.
func BenchmarkSIFence(b *testing.B) {
	c := benchCluster(b, 2)
	xs := c.AllocF64(1 << 16)
	b.ResetTimer()
	onRank0(c, func(t *argo.Thread) {
		for i := 0; i < xs.Len; i += 512 {
			t.GetF64(xs, i)
		}
		for i := 0; i < b.N; i++ {
			t.AcquireFence()
		}
	})
}

// BenchmarkBulkRead measures streaming bulk reads through the page cache.
func BenchmarkBulkRead(b *testing.B) {
	c := benchCluster(b, 2)
	const n = 1 << 15
	xs := c.AllocF64(n)
	buf := make([]float64, n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	onRank0(c, func(t *argo.Thread) {
		for i := 0; i < b.N; i++ {
			t.ReadF64s(xs, 0, n, buf)
		}
	})
}

// BenchmarkHierBarrier measures the full hierarchical barrier.
func BenchmarkHierBarrier(b *testing.B) {
	c := benchCluster(b, 4)
	b.ResetTimer()
	c.Run(4, func(t *argo.Thread) {
		for i := 0; i < b.N; i++ {
			t.Barrier()
		}
	})
}

// BenchmarkHQDLDelegation measures one delegated critical section end to
// end under node-local contention.
func BenchmarkHQDLDelegation(b *testing.B) {
	c := benchCluster(b, 2)
	counter := c.AllocI64(1)
	l := argo.NewHQDL(c)
	b.ResetTimer()
	c.Run(4, func(t *argo.Thread) {
		per := b.N / (2 * 4)
		for i := 0; i < per; i++ {
			l.DelegateWait(t, func(h *argo.Thread) {
				h.SetI64(counter, 0, h.GetI64(counter, 0)+1)
			})
		}
	})
}

// BenchmarkArenaAllocFree measures the dynamic allocator's host-side cost.
func BenchmarkArenaAllocFree(b *testing.B) {
	c := benchCluster(b, 1)
	a := argo.NewArena(c, 8<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := a.Alloc(256, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiff measures diff creation+application for a half-changed page.
func BenchmarkDiff(b *testing.B) {
	c := benchCluster(b, 1)
	_ = c
	base := make([]byte, 4096)
	data := make([]byte, 4096)
	for i := range data {
		if i%2 == 0 {
			data[i] = byte(i)
		}
	}
	s := memSpaceForBench()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyDiff(0, data, base)
	}
}

// BenchmarkDiffApply measures diff application for a sparsely-changed page
// (32-byte runs every 256 bytes — the word-wise scan's favourable case,
// where most of the page is skipped 8 bytes at a time).
func BenchmarkDiffApply(b *testing.B) {
	base := make([]byte, 4096)
	data := make([]byte, 4096)
	for i := 0; i < len(data); i += 256 {
		for j := i; j < i+32; j++ {
			data[j] = byte(j + 1)
		}
	}
	s := memSpaceForBench()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyDiff(0, data, base)
	}
}

// BenchmarkSDFence measures a release fence over a spread dirty set: one
// dirty page per touched line, homes interleaved across 4 nodes — the case
// the home-grouped burst and the parallel sweep optimize.
func BenchmarkSDFence(b *testing.B) {
	c := benchCluster(b, 4)
	xs := c.AllocF64(1 << 16)
	b.ResetTimer()
	onRank0(c, func(t *argo.Thread) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < xs.Len; j += 512 {
				t.SetF64(xs, j, float64(i+j))
			}
			t.ReleaseFence()
		}
	})
}

// BenchmarkNewCluster measures building a cluster of the evaluation
// geometry (64 MB, 4096 four-page lines per node): what a sweep pays per
// data point before any work is done.
func BenchmarkNewCluster(b *testing.B) {
	for _, nodes := range []int{4, 32, 128} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				argo.MustNewCluster(argo.DefaultConfig(nodes))
			}
		})
	}
}

// BenchmarkLaunchEmpty measures a Run whose threads do nothing, on a
// four-node cluster that has done work before: reset, barrier, 16 threads.
func BenchmarkLaunchEmpty(b *testing.B) {
	c := argo.MustNewCluster(argo.DefaultConfig(4))
	xs := c.AllocF64(1 << 16)
	c.Run(4, func(t *argo.Thread) {
		for i := t.Rank; i < xs.Len; i += t.NT {
			t.SetF64(xs, i, 1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(4, func(*argo.Thread) {})
	}
}

func memSpaceForBench() *mem.Space {
	return mem.NewSpace(1, 4096, 4096, mem.Interleaved)
}
