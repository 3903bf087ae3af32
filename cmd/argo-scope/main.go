// Command argo-scope runs one benchmark once and shows any subset of the
// three views of its probe spine — so "where did the time go", "which
// events" and "which critical path" are answered by the same run. Two stock
// sinks observe it: the Argoscope suite and the log of the run, every event
// of it, which the timeline and the critical path both read.
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
//   - -log-out FILE: the log itself, every event in canonical order with the
//     drop count; -in FILE reads it back in place of a run, and every view
//     of the log (-trace-out, -critpath, -pages) renders from it as it did
//     online. -top and -metrics-out need the suite of a run.
//
// With no view flag nothing observes the run. The pq-* benchmarks exercise
// the lock layer at Figure 12's input; the rest are the barrier-synchronized
// application kernels at Figure 13's -quick input, and a kernel's answer is
// checked against the serial one: a wrong one prints BADCHECK, is named on
// standard error and makes the exit status 1.
//
//	argo-scope -bench lu -nodes 4 -tpn 4 -top 10 -trace-out lu.perfetto.json -critpath -
//	argo-scope -bench pq-hqdl -top 20 -metrics-out metrics.json
//	argo-scope -bench cg -trace-format csv -trace-out trace.csv
//	argo-scope -bench lu -critpath - -log-out lu.log.json
//	argo-scope -in lu.log.json -critpath - -k 20 -pages 3
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	"argo/internal/cli"
	"argo/internal/harness"
)

func main() {
	bench := cli.BenchFlags(harness.ScopeBenches(), "lu", 4)
	views := cli.ViewFlags(true)
	chaos := cli.ChaosFlag("unified chaos spec, e.g. drop=0.01,stall=5us,seed=42")
	flag.Parse()

	bench.Validate()
	cfg := bench.Config()
	cfg.Observers = views.Sinks()
	cfg.Faults = chaos.Plan()
	if !views.Offline() {
		r, ok := bench.Run(cfg, cmp.Or(*chaos.Spec, "fault-free"))
		ms := fmt.Sprintf("%.3f virtual ms", float64(r.Time)/1e6)
		if !ok {
			ms = "BADCHECK"
		}
		fmt.Printf("%s on %d×%d: %s\n", *bench.Name, *bench.Nodes, *bench.TPN, ms)
	}
	if err := views.Render(os.Stdout); err != nil {
		cli.Fatal(err)
	}
	bench.Done()
}
