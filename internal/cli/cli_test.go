package cli

import (
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/harness"
	"argo/internal/metrics"
	"argo/internal/probe"
)

func counterSum(ms *metrics.Suite, name string) int64 {
	var n int64
	for _, c := range ms.Dump().Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// TestHookConfigsSingleSeam: the config hook is the one seam into clusters a
// harness experiment builds internally — its suite collects their layers and
// their locks, its default fault plan arms their fabrics — and a config that
// carries its own fault plan keeps it.
func TestHookConfigsSingleSeam(t *testing.T) {
	ms := metrics.NewSuite()
	def, err := fault.ParsePlan("drop=0.05,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	HookConfigs([]probe.Sink{ms}, &def)
	defer func() { core.ConfigHook = nil }()

	e, ok := harness.Lookup("fig12")
	if !ok {
		t.Fatal("fig12 not registered")
	}
	if _, err := e.Run(true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"argo_fabric_ops_total", "argo_lock_acquires_total", "argo_fault_injected_total"} {
		if counterSum(ms, name) == 0 {
			t.Errorf("%s: nothing reached the hooked suite from the experiment's clusters", name)
		}
	}

	cfg := core.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	own := fault.Plan{Seed: 99}
	cfg.Faults = &own
	c := core.MustNewCluster(cfg)
	if c.Cfg.Faults != &own {
		t.Fatal("the hook's default plan replaced an explicit cfg.Faults")
	}
	if obs := c.Cfg.Observers; len(obs) != 1 || obs[0] != ms || c.Obs == nil {
		t.Fatalf("the hook's suite did not reach a directly built cluster: observers %v", obs)
	}
}

func TestKernelTables(t *testing.T) {
	const six = "blackscholes|cg|ep|lu|mm|nbody"
	if got := Names(SweepKernels, "|"); got != six {
		t.Fatalf("SweepKernels = %s", got)
	}
	if got := Names(Kernels, "|"); got != six+"|pq-cohort|pq-hqdl|pq-mutex" {
		t.Fatalf("Kernels = %s", got)
	}
}
