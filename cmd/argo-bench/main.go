// Command argo-bench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	argo-bench [-quick] [experiment ...]
//	argo-bench -list
//
// With no arguments every experiment runs in paper order. Experiment names
// follow the paper: table1, fig1, fig7, fig8, fig9, fig10, fig11, fig12,
// fig13a … fig13f. -quick shrinks inputs and fewer sweep points for a fast
// smoke run (CI); the full run regenerates the shapes reported in
// EXPERIMENTS.md. A cell whose answer fails its check prints as BADCHECK, is
// named on standard error (figure, system, scale) and makes the exit status 1.
//
// Observability (Argoscope): -metrics-out accumulates every simulated
// cluster's latency histograms, counters and hot-spot profiles across the
// selected experiments and writes one machine-readable metrics.json;
// -prom-out writes the same registry as Prometheus exposition text;
// -trace-out attaches the protocol tracer and writes a Chrome trace-event
// (Perfetto) JSON timeline.
//
// Host profiling: -cpuprofile/-memprofile write pprof profiles of the run
// itself (the simulator's host-side cost, not virtual time). The hot paths'
// host costs are measured by the perf ledger (`bash benchmark/run.sh`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"argo/internal/cli"
	"argo/internal/harness"
	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/span"
	"argo/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced inputs and fewer sweep points")
	list := flag.Bool("list", false, "list available experiments and exit")
	metricsOut := flag.String("metrics-out", "", "write the accumulated metrics dump (metrics.json) to this file")
	promOut := flag.String("prom-out", "", "write the accumulated metrics as Prometheus exposition text to this file")
	traceOut := flag.String("trace-out", "", "attach the protocol tracer and write a Perfetto JSON timeline to this file (with -critpath, causal flow arrows are included)")
	critpath := flag.String("critpath", "", "attach the Pictor span recorder and write the critical-path report to this file (best with a single experiment)")
	chaos := cli.ChaosFlag("unified chaos spec applied to every cluster, e.g. drop=0.01,crash=0.02,partition=0.1,seed=42 (most experiments are not crash/partition-tolerant; see the 'crash' experiment)")
	prof := cli.ProfileFlags()
	flag.Parse()

	if *list {
		cli.PrintExperiments(os.Stdout, "")
		return
	}
	stopProfiles := prof.Start()

	plan := chaos.Plan()
	if plan != nil {
		fmt.Printf("fault injection armed: %s\n", plan.String())
	}
	// The experiments build their clusters themselves; only the observers a
	// flag asks for are attached.
	ms, tr, sr := metrics.NewSuite(), trace.New(0), span.NewRecorder(0)
	var obs []probe.Sink
	if *metricsOut != "" || *promOut != "" {
		obs = append(obs, ms)
	}
	if *traceOut != "" {
		obs = append(obs, tr)
	}
	if *critpath != "" {
		obs = append(obs, sr)
	}
	cli.HookConfigs(obs, plan)

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	}
	// A wrong answer does not stop the remaining experiments; it is named on
	// standard error and fails the command once the artifacts are written.
	failed := false
	for _, id := range ids {
		e, ok := harness.Lookup(id)
		if !ok {
			cli.Usagef("unknown experiment %q (try -list)", id)
		}
		fmt.Printf("\n######## %s — %s\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "argo-bench: %s: %v\n", e.ID, err)
			failed = true
		}
		fmt.Printf("[%s done in %v wall time]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *metricsOut != "" {
		cli.WriteFile(*metricsOut, ms.WriteJSON)
		fmt.Printf("\nmetrics dump written to %s\n", *metricsOut)
	}
	if *promOut != "" {
		cli.WriteFile(*promOut, ms.Reg.WritePrometheus)
		fmt.Printf("prometheus exposition written to %s\n", *promOut)
	}
	var flows []trace.Flow
	if *critpath != "" {
		recs := sr.Records()
		rep, err := span.Analyze(recs, sr.Makespan())
		if err != nil {
			cli.Fatal(err)
		}
		flows = span.Flows(recs)
		cli.WriteFile(*critpath, func(w io.Writer) error { return span.WriteReport(w, rep, 10) })
		fmt.Printf("critical-path report written to %s\n", *critpath)
	}
	if *traceOut != "" {
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "argo-bench: %d trace events dropped (per-node buffer limit)\n", d)
		}
		cli.WriteFile(*traceOut, func(w io.Writer) error { return tr.WritePerfettoFlows(w, flows) })
		fmt.Printf("perfetto timeline written to %s\n", *traceOut)
	}
	stopProfiles()
	if failed {
		os.Exit(1)
	}
}
