package argo_test

import (
	"reflect"
	"strings"
	"testing"

	"argo"
	"argo/internal/sim"
)

// NewCluster must return errors, never panic, on bad user input.
func TestNewClusterReturnsErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  argo.Config
		opts []argo.Option
	}{
		{"zero nodes", argo.Config{}, nil},
		{"negative memory", argo.Config{Nodes: 2, MemoryBytes: -1}, nil},
		{"bad fault plan", func() argo.Config {
			cfg := argo.DefaultConfig(2)
			cfg.Faults = &argo.FaultPlan{Drop: 2}
			return cfg
		}(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewCluster panicked: %v", r)
				}
			}()
			if _, err := argo.NewCluster(tc.cfg, tc.opts...); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
}

func TestMustNewClusterPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCluster did not panic on bad config")
		}
	}()
	argo.MustNewCluster(argo.Config{Nodes: -1})
}

func TestOptionsCompose(t *testing.T) {
	ms := argo.NewMetrics()
	tr := argo.NewTracer(0)
	net := argo.FabricParams{}
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	net = cfg.Net
	net.RemoteLatency = 12345

	plan := argo.FaultPlan{Seed: 42}
	plan.Drop = 0.01
	cfg.Faults = &plan

	c, err := argo.NewCluster(cfg,
		argo.WithFabricParams(net),
		argo.WithMetrics(ms),
		argo.WithTracer(tr),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.Net.RemoteLatency != 12345 {
		t.Fatal("WithFabricParams not applied")
	}
	if obs := c.Cfg.Observers; len(obs) != 2 || obs[0] != ms || obs[1] != tr || c.Obs == nil {
		t.Fatalf("WithMetrics and WithTracer not applied: observers %v", obs)
	}
	if c.FI == nil {
		t.Fatal("cfg.Faults did not build an injector")
	}
}

// A cost model written out field by field has no switch left to forget: two
// readers of one home queue at its NIC.
func TestHandWrittenFabricParamsQueueAtNIC(t *testing.T) {
	net := argo.FabricParams{
		RemoteLatency: 2500, NsPerKB: 400, DirService: 100, PostOverhead: 300,
		DRAMLatency: 60, SocketLatency: 120, LocalLatency: 40, CacheHit: 2, MemCopyPerKB: 60,
	}
	cfg := argo.DefaultConfig(3)
	cfg.MemoryBytes = 4 << 20
	c := argo.MustNewCluster(cfg, argo.WithFabricParams(net))
	defer c.Close()
	a, b := &sim.Proc{Node: 0}, &sim.Proc{Node: 2}
	c.Fab.RemoteRead(a, 1, 64<<10, 0)
	c.Fab.RemoteRead(b, 1, 64<<10, 1)
	alone := 2*net.RemoteLatency + net.TransferCost(64<<10)
	if a.Now() != alone {
		t.Fatalf("first reader took %d, want %d", a.Now(), alone)
	}
	if b.Now() <= a.Now() {
		t.Fatalf("second reader of home 1 took %d, first %d: no queueing at the home NIC", b.Now(), a.Now())
	}
}

// WithChaos is the one-stop chaos option: a spec string arms the same
// injector cfg.Faults would, a bad spec surfaces as a NewCluster error
// (not a panic), and the fluent builder produces plans identical to the
// parsed spec form.
func TestWithChaos(t *testing.T) {
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	c, err := argo.NewCluster(cfg, argo.WithChaos("drop=0.01,stall=5us,stallp=0.02,seed=42"))
	if err != nil {
		t.Fatal(err)
	}
	if c.FI == nil {
		t.Fatal("WithChaos did not build an injector")
	}
	c.Run(1, func(th *argo.Thread) { th.Barrier() })

	if _, err := argo.NewCluster(cfg, argo.WithChaos("partition=2")); err == nil {
		t.Fatal("bad chaos spec accepted")
	}

	// The plan's two spellings meet: fields set on the default plan are what
	// the spec parses to, and NewCluster takes either through Config.Faults.
	built := argo.FaultPlan{Seed: 42}
	built.Crash, built.Partition, built.PartitionDur, built.PartitionCut = 0.03, 0.1, 2, 2
	parsed, err := argo.ParseFaultPlan("crash=0.03,partition=0.1,partdur=2,partcut=2,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, parsed) {
		t.Fatalf("struct plan %+v != parsed plan %+v", built, parsed)
	}
	cfg.Faults = &built
	if _, err := argo.NewCluster(cfg); err != nil {
		t.Fatalf("struct plan rejected by NewCluster: %v", err)
	}
}

func TestParseFaultPlanRoundTrip(t *testing.T) {
	plan, err := argo.ParseFaultPlan("drop=0.01,stall=5us,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Drop != 0.01 || plan.Seed != 42 {
		t.Fatalf("parsed plan wrong: %+v", plan)
	}
	if _, err := argo.ParseFaultPlan("drop=banana"); err == nil {
		t.Fatal("garbage rate accepted")
	}
	if _, err := argo.ParseFaultPlan("frobnicate=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if !strings.Contains(plan.String(), "drop=0.01") {
		t.Fatalf("String() lost the drop rate: %s", plan.String())
	}
}
