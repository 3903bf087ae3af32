// Command argo-top runs a benchmark with the Argoscope metrics suite
// attached and prints the hot-spot report: the top-K pages by protocol
// traffic, the top-K locks by contention, and the latency distributions of
// the instrumented layers (fabric operations, fences, lock acquires,
// barrier phases). This is the "where does the time go" view behind the
// aggregate counters of argo-bench.
//
//	argo-top -bench nbody -nodes 4 -tpn 4
//	argo-top -bench pq-hqdl -top 20
//	argo-top -bench cg -json metrics.json -prom metrics.prom
package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"argo/internal/cli"
	"argo/internal/metrics"
)

func main() {
	// The pq-* kernels exercise the lock layer; the rest are the
	// barrier-synchronized application kernels.
	bench := cli.BenchFlags(cli.TopKernels, "nbody", 4)
	top := flag.Int("top", 10, "rows per hot-spot table")
	jsonOut := flag.String("json", "", "write the full metrics dump (metrics.json) to this file")
	promOut := flag.String("prom", "", "write the Prometheus exposition to this file")
	chaos := cli.ChaosFlag("unified chaos spec, e.g. drop=0.01,stall=5us,seed=42")
	flag.Parse()

	run := bench.Runner()
	ms := metrics.NewSuite()
	cfg := bench.Config()
	cfg.Observers = append(cfg.Observers, ms)
	cfg.Faults = chaos.Plan()

	r := run(cfg, *bench.TPN)
	fmt.Printf("%s on %d×%d: %.3f virtual ms\n", *bench.Name, *bench.Nodes, *bench.TPN, float64(r.Time)/1e6)

	if pages := ms.Pages.TopK(*top, metrics.TotalPageActivity); len(pages) > 0 {
		fmt.Printf("\nhot pages (top %d by protocol events):\n", len(pages))
		fmt.Printf("  %-8s %8s %8s %8s %8s %8s %8s\n",
			"page", "rd-miss", "wr-miss", "wrback", "inval", "notify", "evict")
		for _, p := range pages {
			fmt.Printf("  %-8d %8d %8d %8d %8d %8d %8d\n",
				p.Page, p.ReadMisses, p.WriteMisses, p.Writebacks,
				p.Invalidations, p.Notifies, p.Evictions)
		}
	}

	if locksTop := ms.Locks.TopK(*top, metrics.TotalLockActivity); len(locksTop) > 0 {
		fmt.Printf("\nhot locks (top %d by total wait):\n", len(locksTop))
		fmt.Printf("  %-14s %9s %12s %12s %10s %8s %8s %9s\n",
			"lock", "acquires", "wait-ns", "held-ns", "mean-wait", "local", "remote", "delegated")
		for _, l := range locksTop {
			fmt.Printf("  %-14s %9d %12d %12d %10.0f %8d %8d %9d\n",
				l.Name, l.Acquires, l.WaitNs, l.HeldNs, l.MeanWait,
				l.Local, l.Remote, l.Delegated)
		}
	}

	d := ms.Reg.Dump()
	if len(d.Histograms) > 0 {
		fmt.Printf("\nlatency distributions (virtual ns):\n")
		fmt.Printf("  %-52s %9s %9s %9s %9s %9s %9s\n",
			"series", "count", "p50", "p90", "p99", "p999", "max")
		for _, h := range d.Histograms {
			if h.Count == 0 {
				continue
			}
			fmt.Printf("  %-52s %9d %9d %9d %9d %9d %9d\n",
				seriesName(h.Name, h.Labels), h.Count, h.P50, h.P90, h.P99, h.P999, h.Max)
		}
	}
	if len(d.Counters) > 0 {
		fmt.Printf("\ncounters:\n")
		for _, c := range d.Counters {
			if c.Value != 0 {
				fmt.Printf("  %-52s %12d\n", seriesName(c.Name, c.Labels), c.Value)
			}
		}
	}

	if *jsonOut != "" {
		cli.WriteFile(*jsonOut, ms.WriteJSON)
		fmt.Printf("\nmetrics dump written to %s\n", *jsonOut)
	}
	if *promOut != "" {
		cli.WriteFile(*promOut, ms.Reg.WritePrometheus)
		fmt.Printf("prometheus exposition written to %s\n", *promOut)
	}
}

func seriesName(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, labels[k]))
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}
