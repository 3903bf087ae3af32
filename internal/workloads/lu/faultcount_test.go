package lu

import (
	"testing"

	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/mem"
	"argo/internal/metrics"
	"argo/internal/stats"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/wload"
)

// An injected fault is counted in two places: the issuing node's stats
// (FaultsInjected, FaultRetries) and the probe events the metrics suite sums
// (argo_fault_injected_total, argo_fault_retries_total). They agree on the drf
// program and on chaos LU under every transient fault class. The LU plan also
// crashes and partitions nodes, so heartbeats draw verdicts there; those are
// counted in neither place.
func TestFaultCountsAgree(t *testing.T) {
	const luChaos = "crash=0.03,crashrestart=on,partition=0.05,partdur=2,seed=42,"
	for _, class := range []string{"drop=0.02", "delay=0.05,jitter=2us", "stall=5us,stallp=0.05", "atomicfail=0.05"} {
		t.Run(class, func(t *testing.T) {
			drfPlan, luPlan := mustPlan(class+",seed=7"), mustPlan(luChaos+class)
			pr := drf.Params{
				Seed: 5, Nodes: 3, TPN: 2, Elements: 4096, Epochs: 3, Reads: 128,
				PageSize: 1024, CacheLine: 16, PerLine: 2, WBPages: 16,
				Mode: coherence.ModePS3, Policy: mem.Interleaved,
				Faults: &drfPlan,
			}
			var rep drf.Report
			ms := observed(t, func() (err error) { rep, err = drf.RunReport(pr); return })
			agree(t, "drf", rep.Stats, ms)

			p := DefaultCrashParams()
			p.Faults = &luPlan
			var st stats.Snapshot
			ms = observed(t, func() error {
				_, err := runCrash(p, func(basis uint64, c *core.Cluster, s core.F64Slice) uint64 {
					st = c.Stats()
					return wload.DigestOf(basis, c, s)
				})
				return err
			})
			agree(t, "chaos LU", st, ms)
		})
	}
}

// observed runs fn with a fresh metrics suite attached to every cluster it
// builds and returns the suite.
func observed(t *testing.T, fn func() error) *metrics.Suite {
	t.Helper()
	ms := metrics.NewSuite()
	core.ConfigHook = func(cfg *core.Config) { cfg.Observers = append(cfg.Observers, ms) }
	defer func() { core.ConfigHook = nil }()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// agree checks the stats' fault counts against the suite's counter sums.
func agree(t *testing.T, what string, st stats.Snapshot, ms *metrics.Suite) {
	t.Helper()
	sums := map[string]int64{}
	for _, c := range ms.Reg.Dump().Counters {
		sums[c.Name] += c.Value
	}
	if st.FaultsInjected == 0 {
		t.Errorf("%s: the plan injected nothing", what)
	}
	if got := sums["argo_fault_injected_total"]; got != st.FaultsInjected {
		t.Errorf("%s: Σ FaultsInjected %d, Σ argo_fault_injected_total %d", what, st.FaultsInjected, got)
	}
	if got := sums["argo_fault_retries_total"]; got != st.FaultRetries {
		t.Errorf("%s: Σ FaultRetries %d, Σ argo_fault_retries_total %d", what, st.FaultRetries, got)
	}
}
