// Command argo-scope runs one benchmark once and shows any subset of the
// three views of its probe spine — so "where did the time go", "which
// events" and "which critical path" are answered by the same run:
//
//   - -top N: the Argoscope hot-spot report — the top-N pages by protocol
//     traffic, the top-N locks by contention, and the latency distributions
//     of the instrumented layers (fabric operations, fences, lock acquires,
//     barrier phases); -metrics-out writes the full dump as JSON.
//   - -trace-out FILE: the event summary, and the timestamped event stream
//     as csv or as Chrome trace-event JSON that ui.perfetto.dev opens
//     directly (nodes as processes, hardware threads as tracks).
//   - -critpath FILE|-: Pictor's virtual-time critical path — the longest
//     weighted chain of thread execution and happens-before edges (lock
//     handoffs, HQDL delegations, barrier episodes, crash recoveries) through
//     the makespan, every nanosecond attributed to remote latency, NIC
//     occupancy, lock wait, SI sweep, SD/writeback burst, backoff/retry,
//     crash recovery or compute. The attribution sums to the makespan
//     exactly and the path is a pure function of the seeded run. With
//     -trace-out the Perfetto timeline carries the causal flow arrows;
//     -pages N adds the biographies of the busiest pages.
//
// With no view flag nothing observes the run. The pq-* benchmarks exercise
// the lock layer, the rest are the barrier-synchronized application kernels.
//
//	argo-scope -bench lu -nodes 4 -tpn 4 -top 10 -trace-out lu.perfetto.json -critpath -
//	argo-scope -bench pq-hqdl -top 20 -metrics-out metrics.json
//	argo-scope -bench cg -trace-format csv -trace-out trace.csv
//	argo-scope -bench lu -critpath - -spans-out lu.spans.json
//	argo-scope -in lu.spans.json -k 20
package main

import (
	"flag"
	"fmt"
	"os"

	"argo/internal/cli"
)

func main() {
	bench := cli.BenchFlags(cli.Kernels, "lu", 4)
	views := cli.ViewFlags(true)
	chaos := cli.ChaosFlag("unified chaos spec, e.g. drop=0.01,stall=5us,seed=42")
	flag.Parse()

	run := bench.Runner()
	cfg := bench.Config()
	cfg.Observers = views.Sinks()
	cfg.Faults = chaos.Plan()
	if !views.Offline() {
		r := run(cfg, *bench.TPN)
		fmt.Printf("%s on %d×%d: %.3f virtual ms\n", *bench.Name, *bench.Nodes, *bench.TPN, float64(r.Time)/1e6)
	}
	if err := views.Render(os.Stdout); err != nil {
		cli.Fatal(err)
	}
}
