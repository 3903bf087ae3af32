// Command argo-critpath runs a benchmark with the Pictor span recorder
// attached and reports the virtual-time critical path: the longest weighted
// chain of thread execution and happens-before edges (lock handoffs, HQDL
// delegations, barrier episodes, crash recoveries) through the makespan,
// with every nanosecond attributed to a category — remote latency, NIC
// occupancy, lock wait, SI sweep, SD/writeback burst, backoff/retry, crash
// recovery, or compute. By construction the attribution sums to the
// makespan exactly, and the path is a pure function of the seeded run, so
// two replays print byte-identical reports.
//
//	argo-critpath -bench lu -nodes 4 -tpn 4
//	argo-critpath -bench cg -k 20 -perfetto cg.perfetto.json
//	argo-critpath -bench lu -spans-out lu.spans.json
//	argo-critpath -in lu.spans.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"argo/internal/cli"
	"argo/internal/span"
	"argo/internal/trace"
)

func main() {
	bench := cli.BenchFlags(cli.Kernels, "lu", 4)
	k := flag.Int("k", 10, "show the K longest critical-path segments")
	pages := flag.Int("pages", 0, "show biographies of the N busiest pages (0 = off)")
	in := flag.String("in", "", "analyze a span log written by -spans-out instead of running a benchmark")
	spansOut := flag.String("spans-out", "", "write the raw span log (JSON) to this file")
	perfetto := flag.String("perfetto", "", "write a Perfetto trace with causal flow arrows to this file")
	flag.Parse()

	var (
		recs     []span.Record
		makespan int64
		tr       *trace.Tracer
	)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			cli.Fatal(err)
		}
		log, err := span.ReadJSON(f)
		f.Close()
		if err != nil {
			cli.Fatal(err)
		}
		recs, makespan = log.Records, log.Makespan
		fmt.Printf("%s: %.3f virtual ms, %d span records\n",
			*in, float64(makespan)/1e6, len(recs))
	} else {
		run := bench.Runner()
		sr := span.NewRecorder(0)
		tr = trace.New(0)
		cfg := bench.Config()
		cfg.Observers = append(cfg.Observers, sr, tr)
		r := run(cfg, *bench.TPN)
		recs, makespan = sr.Records(), sr.Makespan()
		fmt.Printf("%s on %d×%d: %.3f virtual ms, %d span records\n",
			*bench.Name, *bench.Nodes, *bench.TPN, float64(r.Time)/1e6, len(recs))
		if d := sr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "argo-critpath: %d span records dropped (per-node buffer limit)\n", d)
		}
	}

	rep, err := span.Analyze(recs, makespan)
	if err != nil {
		cli.Fatal(err)
	}
	if rep.MatchedEdges == 0 {
		cli.Fatal(fmt.Errorf("edge set is empty: no sub record found a causal pub"))
	}
	// Causality check: every matched edge must point backward in time. The
	// recorder can only produce such edges; a violation means a corrupted
	// span log.
	for _, fl := range span.Flows(recs) {
		if fl.FromT > fl.ToT {
			cli.Fatal(fmt.Errorf("non-causal edge %s: pub at %d after sub at %d", fl.Name, fl.FromT, fl.ToT))
		}
	}

	fmt.Println()
	if err := span.WriteReport(os.Stdout, rep, *k); err != nil {
		cli.Fatal(err)
	}

	if *pages > 0 && tr != nil {
		bios := span.Biographies(tr.Events())
		fmt.Println()
		if err := span.WriteBiographies(os.Stdout, bios, *pages); err != nil {
			cli.Fatal(err)
		}
	}

	if *spansOut != "" {
		cli.WriteFile(*spansOut, func(w io.Writer) error {
			return span.WriteLog(w, span.Log{Makespan: makespan, Records: recs})
		})
		fmt.Printf("\nspan log written to %s\n", *spansOut)
	}

	if *perfetto != "" {
		if tr == nil {
			tr = trace.New(0)
		}
		cli.WriteFile(*perfetto, func(w io.Writer) error { return tr.WritePerfettoFlows(w, span.Flows(recs)) })
		fmt.Printf("perfetto trace with flow arrows written to %s\n", *perfetto)
	}
}
