package core

import (
	"strings"
	"sync"
	"testing"

	"argo/internal/fault"
)

func TestValidateEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error; "" means valid
	}{
		{"zero nodes", Config{Nodes: 0}, "Nodes must be positive"},
		{"negative nodes", Config{Nodes: -3}, "Nodes must be positive"},
		{"too many nodes", Config{Nodes: 129}, "at most"},
		{"max nodes ok", Config{Nodes: 128}, ""},
		{"negative sockets", Config{Nodes: 2, SocketsPerNode: -1}, "SocketsPerNode"},
		{"negative cores", Config{Nodes: 2, CoresPerSocket: -4}, "CoresPerSocket"},
		{"negative memory", Config{Nodes: 2, MemoryBytes: -1}, "MemoryBytes"},
		{"negative page size", Config{Nodes: 2, PageSize: -4096}, "PageSize"},
		{"negative cache lines", Config{Nodes: 2, CacheLines: -1}, "CacheLines"},
		{"negative pages per line", Config{Nodes: 2, PagesPerLine: -2}, "PagesPerLine"},
		{"negative write buffer", Config{Nodes: 2, WriteBufferPages: -8}, "WriteBufferPages"},
		{"negative decay epochs", Config{Nodes: 2, DecayEpochs: -1}, "DecayEpochs"},
		{"bad fault rate", Config{Nodes: 2, Faults: &fault.Plan{Drop: 1.5}}, "outside [0,1]"},
		{"good fault plan", Config{Nodes: 2, Faults: &fault.Plan{Drop: 0.01, Seed: 42}}, ""},
		{"all defaults", Config{Nodes: 1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted %+v, want error containing %q", tc.cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateFillsDefaultsOnce(t *testing.T) {
	cfg := Config{Nodes: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig(2)
	if cfg.SocketsPerNode != want.SocketsPerNode || cfg.CoresPerSocket != want.CoresPerSocket ||
		cfg.MemoryBytes != want.MemoryBytes || cfg.PageSize != want.PageSize ||
		cfg.CacheLines != want.CacheLines || cfg.PagesPerLine != want.PagesPerLine ||
		cfg.WriteBufferPages != want.WriteBufferPages || cfg.Net != want.Net {
		t.Fatalf("defaults differ from DefaultConfig: got %+v, want %+v", cfg, want)
	}
}

// Concurrent launches on separate clusters must not share state: each run
// writes a distinct pattern into its own memory, and the sync-key counters,
// hit counters and fault injectors stay per cluster. Run under -race this
// also proves the cluster construction path has no hidden globals.
func TestConcurrentClustersAreIsolated(t *testing.T) {
	const clusters = 4
	var wg sync.WaitGroup
	for k := 0; k < clusters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cfg := testConfig(2)
			cfg.Faults = &fault.Plan{Drop: 0.05, Seed: int64(100 + k)}
			c := MustNewCluster(cfg)
			if got := c.NextSyncKey(); got != 1 {
				t.Errorf("cluster %d: first sync key = %d, want 1", k, got)
			}
			xs := c.AllocI64(256)
			c.Run(2, func(th *Thread) {
				for i := th.Rank; i < 256; i += th.NT {
					th.SetI64(xs, i, int64(k)*1000+int64(i))
				}
				th.ReleaseFence() // publish: home truth is checked below
			})
			for i, v := range c.DumpI64(xs) {
				if want := int64(k)*1000 + int64(i); v != want {
					t.Errorf("cluster %d: xs[%d] = %d, want %d", k, i, v, want)
					return
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Errorf("cluster %d: %v", k, err)
			}
		}(k)
	}
	wg.Wait()
}
