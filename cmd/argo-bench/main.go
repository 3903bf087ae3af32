// Command argo-bench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	argo-bench [-quick] [experiment ...]
//	argo-bench -list
//
// -list prints the default cluster configuration, the interconnect cost
// model and the experiment catalog — what a cluster looks like before
// anything runs. With no arguments every experiment runs in paper order.
// Experiment names follow the paper: table1, fig1, fig7, fig8, fig9-10 (one
// write-buffer sweep, both figures), fig11, fig12, fig13a … fig13f, and crash
// (node failures, beyond the paper). -quick shrinks inputs and fewer sweep points
// for a fast smoke run (CI); the full run regenerates the shapes reported in
// EXPERIMENTS.md. A cell whose answer fails its check prints as BADCHECK, is
// named on standard error (figure, system, scale) and makes the exit status 1.
//
// Observability: the view flags of argo-scope (-top, -metrics-out,
// -trace-out, -critpath, …) attach to every cluster the selected experiments
// build and report what accumulated across them; -critpath reads best with a
// single experiment.
//
// Host profiling: -cpuprofile/-memprofile write pprof profiles of the run
// itself (the simulator's host-side cost, not virtual time). The hot paths'
// host costs are measured by the perf ledger (`bash benchmark/run.sh`).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"argo/internal/cli"
	"argo/internal/core"
	"argo/internal/harness"
)

// list prints the default cluster, the cost model and the catalog.
func list() {
	cfg := core.DefaultConfig(4)
	fmt.Println("Argo DSM simulator — default cluster configuration")
	fmt.Printf("  nodes:              %d (max 128)\n", cfg.Nodes)
	fmt.Printf("  sockets/node:       %d × %d cores (the paper's 2×Opteron 6220 node)\n",
		cfg.SocketsPerNode, cfg.CoresPerSocket)
	fmt.Printf("  global memory:      %d MiB, %d B pages, %s homes\n",
		cfg.MemoryBytes>>20, cfg.PageSize, cfg.Policy)
	fmt.Printf("  page cache:         %d lines × %d pages/line per node\n",
		cfg.CacheLines, cfg.PagesPerLine)
	fmt.Printf("  write buffer:       %d pages\n", cfg.WriteBufferPages)
	fmt.Printf("  classification:     %v\n", cfg.Mode)

	p := cfg.Net
	fmt.Println("\nInterconnect cost model (virtual ns)")
	fmt.Printf("  remote latency:     %d (one-way, incl. one-sided MPI software path)\n", p.RemoteLatency)
	fmt.Printf("  wire:               %d ns/KB (≈ %.2f GB/s saturated)\n", p.NsPerKB, 1024/float64(p.NsPerKB))
	fmt.Printf("  directory service:  %d\n", p.DirService)
	fmt.Printf("  DRAM latency:       %d\n", p.DRAMLatency)
	fmt.Printf("  cross-socket:       %d   same-socket: %d   cache hit: %d\n",
		p.SocketLatency, p.LocalLatency, p.CacheHit)
	fmt.Printf("  local copy:         %d ns/KB\n", p.MemCopyPerKB)

	fmt.Println("\nExperiments (argo-bench <id>)")
	for _, e := range harness.All() {
		fmt.Printf("  %-8s %s\n", e.ID, e.Title)
	}
}

func main() {
	quick := flag.Bool("quick", false, "run reduced inputs and fewer sweep points")
	listFlag := flag.Bool("list", false, "print the default configuration, the cost model and the experiment catalog, and exit")
	views := cli.ViewFlags(false)
	chaos := cli.ChaosFlag("unified chaos spec applied to every cluster, e.g. drop=0.01,crash=0.02,partition=0.1,seed=42 (most experiments are not crash/partition-tolerant; see the 'crash' experiment)")
	prof := cli.ProfileFlags()
	flag.Parse()

	if *listFlag {
		list()
		return
	}
	// The experiments build their clusters themselves; only the observers a
	// view flag asks for are attached.
	sinks, plan := views.Sinks(), chaos.Plan()
	stopProfiles := prof.Start()
	if plan != nil {
		fmt.Printf("fault injection armed: %s\n", plan.String())
	}
	cli.HookConfigs(sinks, plan)

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
		tables, err := e.Run(*quick)
		harness.Fprint(os.Stdout, tables...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "argo-bench: %s: %v\n", e.ID, err)
			failed = true
		}
		fmt.Printf("[%s done in %v wall time]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if err := views.Render(os.Stdout); err != nil {
		cli.Fatal(err)
	}
	stopProfiles()
	if failed {
		os.Exit(1)
	}
}
