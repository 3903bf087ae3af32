package harness

// Cygnus robustness experiment: crash-stop and crash-restart node failures
// on the deterministic ring workload. Not a paper figure — the paper's
// cluster never loses a node — but the natural acceptance run for the
// membership layer: dead writers' shards are reassigned to survivors at the
// next barrier, answers stay bit-identical to the fault-free run, and the
// whole schedule (crashes, membership epochs, makespan) replays exactly.

import (
	"fmt"

	"argo/internal/fault"
	"argo/internal/workloads/drf"
)

func init() {
	register("crash", "Cygnus: crash-stop/restart recovery on the deterministic ring", crashExp)
}

func crashExp(quick bool) ([]Table, error) {
	pr := drf.RingParams{Nodes: 8, PerNode: 2048, Epochs: 6, PageSize: 1024}
	rates := []float64{0.01, 0.03, 0.06}
	if quick {
		pr = drf.RingParams{Nodes: 6, PerNode: 512, Epochs: 4, PageSize: 1024}
		rates = []float64{0.05}
	}
	base, err := drf.RunRing(pr)
	if err != nil {
		return nil, fmt.Errorf("fault-free baseline: %w", err)
	}

	var rows [][]string
	var bad badCells
	for _, mode := range []struct {
		name    string
		restart bool
	}{{"crash-stop", false}, {"crash-restart", true}} {
		for _, rate := range rates {
			plan := fault.Plan{Seed: 7, Crash: rate, CrashRestart: mode.restart}
			rep, err := drf.ReplayCheck(pr, plan)
			if err != nil {
				rows = append(rows, []string{mode.name, fmt.Sprintf("%g", rate),
					"-", "-", "-", "FAIL: " + err.Error()})
				bad = append(bad, fmt.Errorf("%s at rate %g: %w", mode.name, rate, err))
				continue
			}
			overhead := 100 * float64(rep.Makespan-base.Makespan) / float64(base.Makespan)
			rows = append(rows, []string{
				mode.name,
				fmt.Sprintf("%g", rate),
				fmt.Sprintf("%d", rep.Deaths),
				fmt.Sprintf("%d", rep.Epoch),
				fmt.Sprintf("%d", rep.Makespan),
				fmt.Sprintf("%+.1f%%", overhead),
			})
		}
	}
	return []Table{{
		Title: fmt.Sprintf("Cygnus crash recovery on the ring (%d nodes, %d epochs; answers bit-identical, replay exact)",
			pr.Nodes, pr.Epochs),
		Headers: []string{"mode", "rate", "deaths", "epochs", "makespan(ns)", "vs fault-free"},
		Rows:    rows,
		Note: fmt.Sprintf("fault-free makespan %d ns; every cell ran 1 fault-free + 2 crashy runs and verified digests and schedules match",
			base.Makespan),
	}}, bad.err()
}
