package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"argo/internal/cache"
	"argo/internal/mem"
	"argo/internal/racetag"
	"argo/internal/sparse"
)

// allocatedBy returns the bytes f allocates (TotalAlloc is monotonic and counts
// every goroutine, so a launch's threads are included), measured on one P as
// testing.AllocsPerRun measures.
func allocatedBy(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := allocated()
	f()
	return allocated() - before
}

// A cluster's skeleton — cache lines, Pyxis maps, home page table — costs what
// a run touches, not what the configuration reserves. The budgets are on
// allocated bytes, never on time: the evaluation geometry (DefaultConfig is
// wload.ArgoConfig(n, 64<<20): 64 MB, 4096 four-page lines and an 8192-page
// write buffer per node) took 11.2 MB to build on 4 nodes and 319 MB on 128
// when the three structures were full-length arrays.
func TestClusterCostsWhatItTouches(t *testing.T) {
	const mb = 1 << 20
	var c4, c128 *Cluster
	if got := allocatedBy(func() { c4 = MustNewCluster(DefaultConfig(4)) }); got > 1*mb {
		t.Errorf("building 4 nodes allocated %.2f MB, budget 1 MB", float64(got)/mb)
	}
	// What is left at 128 nodes is mostly the 65 KB write-buffer ring each
	// node keeps eagerly (8.4 MB).
	if got := allocatedBy(func() { c128 = MustNewCluster(DefaultConfig(128)) }); got > 16*mb {
		t.Errorf("building 128 nodes allocated %.2f MB, budget 16 MB", float64(got)/mb)
	}
	// An empty launch pays for 512 threads' TLBs and RNG sources, not for
	// skeleton: nothing was touched, so the reset has nothing to walk.
	if got := allocatedBy(func() { c128.Run(4, func(*Thread) {}) }); got > 12*mb {
		t.Errorf("an empty Run(4) on 128 nodes allocated %.2f MB, budget 12 MB", float64(got)/mb)
	}

	// Every node reads the same P pages, which initialisation wrote. What is
	// allocated beyond the pages' own bytes — the home copy at initialisation,
	// a cached copy per node in the run — is the launch and a few chunks per
	// structure and node (about 0.5 MB), where one whole Pyxis map is 0.5 MB,
	// the home page table 0.75 MB and a node's lines 2.1 MB. The exact chunk
	// counts are pinned where they can be seen, in the tests of
	// internal/directory, internal/mem and internal/cache.
	const pages = 600
	ps := mem.Addr(c4.Cfg.PageSize)
	data := uint64(pages * ps)
	src := make([]byte, pages*ps)
	base := c4.AllocPages(pages * ps)
	if got := allocatedBy(func() { c4.InitBytes(base, src) }); got > data+mb/16 {
		t.Errorf("initialising %d pages allocated %.2f MB beyond their bytes, budget 1/16 MB", pages, float64(got-data)/mb)
	}
	nodes := uint64(len(c4.Nodes))
	read := func(c *Cluster, base mem.Addr) {
		c.Run(2, func(th *Thread) {
			for pg := mem.Addr(th.Local); pg < pages; pg += 2 {
				th.ReadU64(base + pg*ps)
			}
		})
	}
	if got := allocatedBy(func() { read(c4, base) }); got > nodes*data+3*mb/4 {
		t.Errorf("reading %d pages on every node allocated %.2f MB beyond their bytes, budget 3/4 MB", pages, float64(got-nodes*data)/mb)
	}
	chunksFor := func(n int) int { return (n+sparse.ChunkLen-1)/sparse.ChunkLen + 1 }
	for _, n := range c4.Nodes {
		lines := 0
		n.Cache.ForEachLine(func(int, []cache.Slot) { lines++ })
		if max := chunksFor(pages/c4.Cfg.PagesPerLine) * sparse.ChunkLen; lines == 0 || lines > max {
			t.Errorf("node %d: %d cache lines exist for %d pages, want 1 to %d", n.ID, lines, pages, max)
		}
	}

	// Closing hands the home and cached frames to the next cluster: the same
	// build, initialisation and read again costs the skeleton and the launch,
	// under an eighth of the frames the first cycle took.
	c4.Close()
	frames := (1 + nodes) * data
	again := allocatedBy(func() {
		c := MustNewCluster(DefaultConfig(4))
		base := c.AllocPages(pages * ps)
		c.InitBytes(base, src)
		read(c, base)
		c.Close()
	})
	if again > frames/8 {
		t.Errorf("a second build, initialisation and read allocated %.2f MB, budget %.2f MB (an eighth of the %.2f MB of frames the first took)", float64(again)/mb, float64(frames/8)/mb, float64(frames)/mb)
	}
}

// A cluster built, run and closed a second time with the same configuration
// takes its skeleton — home page table, Pyxis maps, cache lines — and its
// threads' TLBs from what the first one closed, as it takes its frames: what
// is left is the launch, the fixed-size headers and the write-buffer rings.
// Every thread writes a word on pages a chunk apart and then reads every
// other thread's, so each structure has chunks on every node. What one cycle
// allocates still moves by about a kilobyte with the order its threads run
// in, so the bound is on the least of five cycles. On amd64 that was 36.5 KB
// (single cycles read up to 37.7 KB); with the skeleton and TLBs built anew it
// was 3.4 MB, without freeing the page table and the Pyxis maps 0.92 MB, and
// without releasing the TLBs 0.21 MB.
func TestRecycledClusterAllocBound(t *testing.T) {
	if racetag.Enabled {
		t.Skip("a race-detector build refills a published cache buffer with a fresh frame and never hands the old one back (cache/tlb.go, pillar 2), so its cycles allocate frames")
	}
	const nodes, tpn, per = 4, 4, 4 // per: pages a thread writes
	cycle := func() {
		c := MustNewCluster(DefaultConfig(nodes))
		words := c.Cfg.PageSize / 8 * sparse.ChunkLen // a chunk of pages
		xs := c.AllocF64(nodes * tpn * per * words)
		c.Run(tpn, func(th *Thread) {
			for k := 0; k < per; k++ {
				th.SetF64(xs, (th.Rank*per+k)*words, 1)
			}
			th.ReleaseFence()
			th.AcquireFence()
			for i := 0; i < th.NT*per; i++ {
				th.GetF64(xs, i*words)
			}
		})
		c.Close()
	}
	cycle()
	least := uint64(math.MaxUint64)
	for range 5 {
		least = min(least, allocatedBy(cycle))
	}
	if least > 128<<10 {
		t.Errorf("a second build, run and close allocated %.1f KB, budget 128 KB", float64(least)/(1<<10))
	}
}

// Clusters built, run and closed at once pass chunks and TLBs between them
// while the others run: every cluster closes after each round, and the next
// round's clusters — with other line counts and PagesPerLine — take what it
// freed. Each thread writes a value no other cluster or round writes on pages
// a chunk apart, and in a second launch every thread reads every other's, so
// a recycled line, map entry or page-table entry that was not reset would
// hand a thread another cluster's page. Run under -race.
func TestRecycledSkeletonBetweenLiveClusters(t *testing.T) {
	const clusters, rounds, tpn, per = 4, 5, 2, 3
	var wg sync.WaitGroup
	for k := range clusters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				cfg := testConfig(2)
				cfg.PagesPerLine = 1 << ((k + round) % 4)
				cfg.CacheLines = 64 << ((k + round) % 3)
				c := MustNewCluster(cfg)
				words := cfg.PageSize / 8 * sparse.ChunkLen // a chunk of pages
				xs := c.AllocI64(cfg.Nodes * tpn * per * words)
				tag := func(i int) int64 { return int64(k*1_000_000 + round*1000 + i) }
				c.Run(tpn, func(th *Thread) {
					for j := 0; j < per; j++ {
						i := th.Rank*per + j
						th.SetI64(xs, i*words, tag(i))
					}
					th.ReleaseFence()
				})
				c.Run(tpn, func(th *Thread) {
					th.AcquireFence()
					for i := 0; i < th.NT*per; i++ {
						if got := th.GetI64(xs, i*words); got != tag(i) {
							t.Errorf("cluster %d round %d: thread %d read %d at page %d, want %d", k, round, th.Rank, got, i*sparse.ChunkLen, tag(i))
						}
					}
				})
				if err := c.CheckInvariants(); err != nil {
					t.Errorf("cluster %d round %d: %v", k, round, err)
				}
				c.Close()
			}
		}()
	}
	wg.Wait()
}
