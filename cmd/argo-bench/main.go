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
// EXPERIMENTS.md.
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
	"runtime"
	"runtime/pprof"
	"time"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/harness"
	"argo/internal/metrics"
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
	chaos := flag.String("chaos", "", "unified chaos spec applied to every cluster, e.g. drop=0.01,crash=0.02,partition=0.1,seed=42 (most experiments are not crash/partition-tolerant; see the 'crash' experiment)")
	faults := flag.String("faults", "", "deprecated alias for -chaos")
	crash := flag.Float64("crash", 0, "deprecated: Cygnus crash rate merged into the chaos plan; prefer crash= inside -chaos")
	crashRestart := flag.Bool("crash-restart", false, "deprecated: crashed nodes rejoin instead of staying dead (with -crash); prefer restart=true inside -chaos")
	eagerDrain := flag.Int("eagerdrain", 0, "start an eager write-buffer drainer per node with this low-water mark in pages (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "argo-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "argo-bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile written to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			runtime.GC()
			writeFile(*memProfile, pprof.WriteHeapProfile)
			fmt.Printf("heap profile written to %s\n", *memProfile)
		}()
	}

	spec := *chaos
	if spec == "" {
		spec = *faults // deprecated alias
	}
	if spec != "" || *crash > 0 {
		plan := fault.DefaultPlan(0)
		if spec != "" {
			var err error
			if plan, err = fault.ParsePlan(spec); err != nil {
				fmt.Fprintln(os.Stderr, "argo-bench:", err)
				os.Exit(2)
			}
		}
		if *crash > 0 {
			plan.Crash = *crash
			plan.CrashRestart = *crashRestart
		}
		if err := plan.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "argo-bench:", err)
			os.Exit(2)
		}
		fmt.Printf("fault injection armed: %s\n", plan.String())
		core.DefaultFaultPlan = &plan
		defer func() { core.DefaultFaultPlan = nil }()
	}

	if *eagerDrain > 0 {
		low := *eagerDrain
		core.ConfigHook = func(cfg *core.Config) { cfg.EagerDrainPages = low }
		defer func() { core.ConfigHook = nil }()
	}

	var ms *metrics.Suite
	if *metricsOut != "" || *promOut != "" {
		ms = metrics.NewSuite()
		core.MetricsHook = func(c *core.Cluster) { c.AttachMetrics(ms) }
		defer func() { core.MetricsHook = nil }()
	}
	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.New(0)
		core.TraceHook = func(c *core.Cluster) { c.AttachTracer(tr) }
		defer func() { core.TraceHook = nil }()
	}
	var sr *span.Recorder
	if *critpath != "" {
		sr = span.NewRecorder(0)
		core.SpanHook = func(c *core.Cluster) { c.AttachSpans(sr) }
		defer func() { core.SpanHook = nil }()
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := harness.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "argo-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("\n######## %s — %s\n", e.ID, e.Title)
		start := time.Now()
		e.Run(os.Stdout, *quick)
		fmt.Printf("[%s done in %v wall time]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if ms != nil {
		if *metricsOut != "" {
			writeFile(*metricsOut, ms.WriteJSON)
			fmt.Printf("\nmetrics dump written to %s\n", *metricsOut)
		}
		if *promOut != "" {
			writeFile(*promOut, ms.Reg.WritePrometheus)
			fmt.Printf("prometheus exposition written to %s\n", *promOut)
		}
	}
	var flows []trace.Flow
	if sr != nil {
		recs := sr.Records()
		rep, err := span.Analyze(recs, sr.Makespan())
		if err != nil {
			fmt.Fprintln(os.Stderr, "argo-bench:", err)
			os.Exit(1)
		}
		flows = span.Flows(recs)
		writeFile(*critpath, func(w io.Writer) error { return span.WriteReport(w, rep, 10) })
		fmt.Printf("critical-path report written to %s\n", *critpath)
	}
	if tr != nil {
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "argo-bench: %d trace events dropped (per-node buffer limit)\n", d)
		}
		writeFile(*traceOut, func(w io.Writer) error { return tr.WritePerfettoFlows(w, flows) })
		fmt.Printf("perfetto timeline written to %s\n", *traceOut)
	}
}

func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "argo-bench:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, "argo-bench:", err)
		os.Exit(1)
	}
}
