package argo_test

import (
	"fmt"
	"testing"

	"argo"
)

// TestEvictionDowngradePinned pins the virtual cost of the eviction
// downgrades. Node 0 alone scatters stores over an array far larger than its
// 32-page cache and releases after each round, so dirty pages leave the cache
// through conflict evictions and, with a 4-page write buffer, through buffer
// overflows too. Each cell reads one makespan, under no faults, under delays
// and stalls, and under drops; the traffic counters read the same in every
// cell. A lost eviction post is reissued without diffing the page again.
func TestEvictionDowngradePinned(t *testing.T) {
	const (
		n      = 200_000
		stride = 97
		rounds = 3
	)
	cells := []struct {
		spec string
		wb   int
		want int64
	}{
		{"", 4, 6_407_535},
		{"", 8192, 6_389_158},
		{"delay=0.2,jitter=3us,stallp=0.1,stall=2us,seed=3", 4, 7_454_725},
		{"delay=0.2,jitter=3us,stallp=0.1,stall=2us,seed=3", 8192, 7_426_565},
		{"drop=0.05,seed=3", 4, 7_632_835},
		{"drop=0.05,seed=3", 8192, 7_614_458},
	}
	for _, cell := range cells {
		name := cell.spec
		if name == "" {
			name = "fault-free"
		}
		t.Run(fmt.Sprintf("wb%d/%s", cell.wb, name), func(t *testing.T) {
			cfg := argo.DefaultConfig(3)
			cfg.MemoryBytes = 8 << 20
			cfg.CacheLines, cfg.PagesPerLine, cfg.WriteBufferPages = 16, 2, cell.wb
			if cell.spec != "" {
				plan, err := argo.ParseFaultPlan(cell.spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = &plan
			}
			c := argo.MustNewCluster(cfg)
			defer c.Close()
			xs := c.AllocI64(n)
			makespan := c.Run(1, func(th *argo.Thread) {
				if th.Rank != 0 {
					return
				}
				for round := 0; round < rounds; round++ {
					for i := 0; i < n; i += stride {
						th.SetI64(xs, i, int64(i*round+1))
					}
					th.ReleaseFence()
				}
			})
			s := c.Stats()
			if int64(makespan) != cell.want {
				t.Errorf("makespan %d ns, want %d", makespan, cell.want)
			}
			if s.Writebacks != 1173 || s.WritebackBytes != 62981 || s.Messages != 2344 || s.BytesSent != 3249171 {
				t.Errorf("writebacks %d (%d B), messages %d (%d B), want 1173 (62981 B), 2344 (3249171 B)",
					s.Writebacks, s.WritebackBytes, s.Messages, s.BytesSent)
			}
		})
	}
}
