// Command argo-trace runs a benchmark with the protocol event tracer
// attached and prints an event summary — or, with -out, the full
// timestamped event stream for offline analysis. -format selects the
// stream encoding: csv, or perfetto (Chrome trace-event JSON that
// ui.perfetto.dev opens directly, nodes as processes and hardware threads
// as tracks). This is the per-event view behind the aggregate counters of
// argo-bench.
//
//	argo-trace -bench nbody -nodes 4 -tpn 4
//	argo-trace -bench cg -format csv -out trace.csv
//	argo-trace -bench cg -format perfetto -out trace.perfetto.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"argo/internal/cli"
	"argo/internal/probe"
	"argo/internal/trace"
)

func main() {
	bench := cli.BenchFlags(cli.Kernels, "nbody", 4)
	format := flag.String("format", "csv", "event stream encoding for -out: csv|perfetto")
	out := flag.String("out", "", "write the full event stream to this file")
	top := flag.Int("top", 10, "show the N hottest pages")
	flag.Parse()

	run := bench.Runner()
	tr := trace.New(0)
	// Validate the output encoding before spending minutes on the run.
	write := map[string]func(io.Writer) error{
		"csv":      tr.WriteCSV,
		"perfetto": tr.WritePerfetto,
	}[*format]
	if write == nil {
		cli.Usagef("unknown format %q (want csv|perfetto)", *format)
	}

	cfg := bench.Config()
	cfg.Observers = append(cfg.Observers, tr)
	r := run(cfg, *bench.TPN)
	fmt.Printf("%s on %d×%d: %.3f virtual ms, %d events\n",
		*bench.Name, *bench.Nodes, *bench.TPN, float64(r.Time)/1e6, tr.Len())
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "argo-trace: %d events dropped (per-node buffer limit); raise trace.New's limit for a complete stream\n", d)
	}

	fmt.Println("\nevent counts:")
	sum := tr.Summary()
	kinds := make([]probe.Kind, 0, len(sum))
	for k := range sum {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return sum[kinds[i]] > sum[kinds[j]] })
	for _, k := range kinds {
		fmt.Printf("  %-18s %d\n", k, sum[k])
	}

	// Hottest pages by invalidation count (migratory data shows up here).
	hot := map[int]int{}
	for _, e := range tr.Events() {
		if e.Kind == probe.Invalidate {
			hot[e.Page]++
		}
	}
	type pc struct{ page, n int }
	var pcs []pc
	for p, n := range hot {
		pcs = append(pcs, pc{p, n})
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i].n > pcs[j].n })
	if len(pcs) > 0 {
		fmt.Printf("\nhottest pages (by self-invalidations):\n")
		for i, e := range pcs {
			if i >= *top {
				break
			}
			fmt.Printf("  page %-6d invalidated %d times\n", e.page, e.n)
		}
	}

	if *out != "" {
		cli.WriteFile(*out, write)
		fmt.Printf("\nfull event stream written to %s\n", *out)
	}
}
