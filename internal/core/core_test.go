package core

import (
	"math"
	"testing"
	"testing/quick"

	"argo/internal/coherence"
	"argo/internal/mem"
)

func testConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cfg := Config{Nodes: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.PageSize != 4096 || cfg.CacheLines == 0 || cfg.WriteBufferPages == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	bad := Config{Nodes: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero nodes validated")
	}
	big := Config{Nodes: 129}
	if err := big.Validate(); err == nil {
		t.Fatal("129 nodes validated")
	}
}

func TestNewClusterRejectsBadConfig(t *testing.T) {
	if _, err := NewCluster(Config{Nodes: -1}); err == nil {
		t.Fatal("negative nodes accepted")
	}
}

func TestTypedAccessorsRoundTrip(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	xs := c.AllocF64(16)
	is := c.AllocI64(16)
	c.Run(1, func(th *Thread) {
		if th.Rank != 0 {
			return
		}
		th.SetF64(xs, 3, 3.25)
		th.WriteF64(xs.At(4), -1e300)
		th.SetI64(is, 5, -42)
		th.WriteU64(is.At(6), math.MaxUint64)
		if th.GetF64(xs, 3) != 3.25 || th.ReadF64(xs.At(4)) != -1e300 {
			panic("float round trip failed")
		}
		if th.GetI64(is, 5) != -42 || th.ReadU64(is.At(6)) != math.MaxUint64 {
			panic("int round trip failed")
		}
	})
}

func TestBulkAccessorsRoundTrip(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	xs := c.AllocF64(1000)
	c.Run(1, func(th *Thread) {
		if th.Rank != 0 {
			return
		}
		src := make([]float64, 700)
		for i := range src {
			src[i] = float64(i) * 0.5
		}
		th.WriteF64s(xs, 100, src)
		dst := make([]float64, 700)
		th.ReadF64s(xs, 100, 800, dst)
		for i := range src {
			if dst[i] != src[i] {
				panic("bulk round trip failed")
			}
		}
	})
}

func TestInitAndDump(t *testing.T) {
	c := MustNewCluster(testConfig(3))
	xs := c.AllocF64(513) // crosses page boundaries on every node
	vals := make([]float64, 513)
	for i := range vals {
		vals[i] = float64(i) + 0.25
	}
	c.InitF64(xs, vals)
	got := c.DumpF64(xs)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("xs[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	is := c.AllocI64(100)
	ivals := make([]int64, 100)
	for i := range ivals {
		ivals[i] = int64(-i * 7)
	}
	c.InitI64(is, ivals)
	igot := c.DumpI64(is)
	for i := range ivals {
		if igot[i] != ivals[i] {
			t.Fatalf("is[%d] = %v, want %v", i, igot[i], ivals[i])
		}
	}
}

// dumpBytes copies len(dst) bytes of home memory from a out, through the walk
// ViewHome and the dumps are built on.
func dumpBytes(c *Cluster, a mem.Addr, dst []byte) {
	k := 0
	c.viewBytes(a, len(dst), func(b []byte) { k += copy(dst[k:], b) })
}

// Property: arbitrary byte blobs survive Init → Dump across page and home
// boundaries.
func TestInitDumpProperty(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	base := c.AllocPages(1 << 16)
	f := func(data []byte, offU uint16) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offU) % (1<<16 - int64(len(data)))
		c.InitBytes(base+off, data)
		got := make([]byte, len(data))
		dumpBytes(c, base+off, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAssignsRanks(t *testing.T) {
	c := MustNewCluster(testConfig(3))
	seen := make([]int, 6)
	c.Run(2, func(th *Thread) {
		if th.Rank != th.Node*2+th.Local {
			panic("rank formula broken")
		}
		if th.NT != 6 || th.TPN != 2 {
			panic("launch dimensions wrong")
		}
		seen[th.Rank]++
	})
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("rank %d ran %d times", r, n)
		}
	}
}

func TestRunReturnsMakespan(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	ms := c.Run(2, func(th *Thread) {
		th.Compute(int64(th.Rank) * 1000)
	})
	if ms != 3000 {
		t.Fatalf("makespan = %d, want 3000", ms)
	}
}

func TestRunResetsBetweenLaunches(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	xs := c.AllocF64(100)
	c.Run(1, func(th *Thread) {
		if th.Rank == 0 {
			th.SetF64(xs, 0, 7)
		}
	})
	// Data survives across runs (home memory persists) …
	var got float64
	c.Run(1, func(th *Thread) {
		if th.Rank == 1*1 { // a thread on the other node reads fresh
			got = th.GetF64(xs, 0)
		}
	})
	if got != 7 {
		t.Fatalf("home data lost across runs: %v", got)
	}
	// … but the classification does not (ResetVirtualState cleared it).
	if !c.Dir.Home(c.Space.PageOf(xs.At(0))).W.Empty() {
		t.Fatal("writer map survived the inter-run reset")
	}
}

func TestHitsAggregated(t *testing.T) {
	c := MustNewCluster(testConfig(1))
	xs := c.AllocF64(10)
	c.Run(2, func(th *Thread) {
		for k := 0; k < 50; k++ {
			th.GetF64(xs, 0)
		}
	})
	if c.Hits() < 90 {
		t.Fatalf("hit counter = %d, want ~99", c.Hits())
	}
}

func TestSWDiffSuppressConfigPlumbs(t *testing.T) {
	cfg := testConfig(2)
	cfg.SWDiffSuppress = true
	cfg.Mode = coherence.ModePS3
	c := MustNewCluster(cfg)
	if !c.Nodes[0].Opt.SWDiffSuppress {
		t.Fatal("SWDiffSuppress not plumbed to coherence options")
	}
}

func TestRawByteAccessors(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	base := c.AllocPages(8192)
	c.Run(1, func(th *Thread) {
		if th.Rank != 0 {
			return
		}
		src := []byte{9, 8, 7, 6, 5}
		th.WriteBytes(base+4000, src) // straddles a page boundary
		dst := make([]byte, 5)
		th.ReadBytes(base+4000, dst)
		for i := range src {
			if dst[i] != src[i] {
				panic("byte round trip failed")
			}
		}
	})
}

func TestExplicitFences(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	xs := c.AllocI64(8)
	c.Run(1, func(th *Thread) {
		if th.Rank != 0 {
			return
		}
		th.SetI64(xs, 0, 55)
		th.ReleaseFence()
		th.AcquireFence()
	})
	if got := c.DumpI64(xs)[0]; got != 55 {
		t.Fatalf("release fence did not publish: %d", got)
	}
	if c.Stats().SDFences == 0 || c.Stats().SIFences == 0 {
		t.Fatal("explicit fences not counted")
	}
}

func TestI64BulkAccessors(t *testing.T) {
	c := MustNewCluster(testConfig(1))
	is := c.AllocI64(300)
	c.Run(1, func(th *Thread) {
		if th.Rank != 0 {
			return
		}
		src := make([]int64, 250)
		for i := range src {
			src[i] = int64(i) - 100
		}
		th.WriteI64s(is, 25, src)
		dst := make([]int64, 250)
		th.ReadI64s(is, 25, 275, dst)
		for i := range src {
			if dst[i] != src[i] {
				panic("i64 bulk round trip failed")
			}
		}
	})
}

func TestClusterAllocAndStats(t *testing.T) {
	c := MustNewCluster(testConfig(2))
	a := c.Alloc(100)
	b := c.Alloc(100)
	if b < a+100 {
		t.Fatal("cluster allocs overlap")
	}
	_ = c.Stats()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
