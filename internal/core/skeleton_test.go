package core

import (
	"testing"

	"argo/internal/cache"
	"argo/internal/mem"
	"argo/internal/racetag"
	"argo/internal/sparse"
)

// allocatedBy returns the bytes f allocates (TotalAlloc is monotonic and counts
// every goroutine, so a launch's threads are included).
func allocatedBy(f func()) uint64 {
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
	// under an eighth of the frames the first cycle took. (The race detector's
	// pool drops a quarter of what it is given, and its refills take fresh
	// frames by design.)
	c4.Close()
	frames := (1 + nodes) * data
	again := allocatedBy(func() {
		c := MustNewCluster(DefaultConfig(4))
		base := c.AllocPages(pages * ps)
		c.InitBytes(base, src)
		read(c, base)
		c.Close()
	})
	if !racetag.Enabled && again > frames/8 {
		t.Errorf("a second build, initialisation and read allocated %.2f MB, budget %.2f MB (an eighth of the %.2f MB of frames the first took)", float64(again)/mb, float64(frames/8)/mb, float64(frames)/mb)
	}
}
