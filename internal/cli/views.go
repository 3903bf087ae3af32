package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/span"
	"argo/internal/trace"
)

// Views is the view-flag block: the readers of the probe spine — the
// Argoscope hot-spot tables, the event timeline and Pictor's critical path —
// declared once for every tool that can show them, over the two stock sinks:
// the Argoscope suite and the log of the run, which the timeline and the
// critical path both read. Sinks returns the observers the parsed flags need,
// for Config.Observers or HookConfigs; Render prints and writes what they
// hold once the run is over.
type Views struct {
	top, k, pages                *int
	metricsOut, logOut, critpath *string
	traceOut, traceFormat        *string
	in                           *string // nil where the tool has no offline mode

	ms *metrics.Suite
	tr *trace.Tracer
}

// ViewFlags declares the view flags; offline adds -in, the log of an earlier
// run to read in place of a run.
func ViewFlags(offline bool) *Views {
	v := &Views{
		top:         flag.Int("top", 0, "print the hot-spot report with N rows per table: hottest pages and locks, latency distributions, counters (0 = off)"),
		metricsOut:  flag.String("metrics-out", "", "write the metrics dump (JSON: every series plus the hot-page and hot-lock profiles) to this file"),
		traceOut:    flag.String("trace-out", "", "print the event summary and write the event timeline to this file (with -critpath, the Perfetto timeline carries the causal flow arrows)"),
		traceFormat: flag.String("trace-format", "perfetto", "encoding of -trace-out: csv|perfetto"),
		critpath:    flag.String("critpath", "", "write the critical-path report to this file (- for standard output)"),
		k:           flag.Int("k", 10, "longest critical-path segments the -critpath report lists"),
		pages:       flag.Int("pages", 0, "print biographies of the N busiest pages (0 = off)"),
		logOut:      flag.String("log-out", "", "write the log of the run (JSON: every event, and the drop count) to this file"),
	}
	if offline {
		v.in = flag.String("in", "", "read the log written by -log-out instead of running a benchmark: every view but -top and -metrics-out renders from it")
	}
	return v
}

// Offline reports whether -in replaces the run.
func (v *Views) Offline() bool { return v.in != nil && *v.in != "" }

// Sinks validates the parsed block — a flag that cannot be honoured exits
// with status 2 here, before the run is paid for — and returns the observers
// the flags ask for: none at all when no view flag is set, so the run is the
// detached run.
func (v *Views) Sinks() []probe.Sink {
	if *v.traceFormat != "csv" && *v.traceFormat != "perfetto" {
		Usagef("unknown -trace-format %q (want csv|perfetto)", *v.traceFormat)
	}
	if v.Offline() {
		// A suite's gauges and lock names follow the host order in which
		// superimposed clusters reported; a log replayed in canonical order
		// cannot reproduce that order.
		for _, f := range []struct {
			name string
			set  bool
		}{{"-top", *v.top > 0}, {"-metrics-out", *v.metricsOut != ""}} {
			if f.set {
				Usagef("%s with -in: %s needs the metrics suite of a run, and a log cannot rebuild it", f.name, f.name)
			}
		}
		return nil
	}
	var sinks []probe.Sink
	if *v.top > 0 || *v.metricsOut != "" {
		v.ms = metrics.NewSuite()
		sinks = append(sinks, v.ms)
	}
	if *v.traceOut != "" || *v.pages > 0 || *v.critpath != "" || *v.logOut != "" {
		v.tr = trace.New(0)
		sinks = append(sinks, v.tr)
	}
	return sinks
}

// Render writes every view Sinks attached a sink for: the hot-spot tables
// and the event summary to w, the critical-path report to w or its file, and
// the metrics, timeline and log files. Offline, the log named by -in is read
// back into the tracer, and every view of the log renders as it did online.
func (v *Views) Render(w io.Writer) error {
	if v.ms != nil {
		if *v.top > 0 {
			writeHotSpots(w, v.ms, *v.top)
		}
		if *v.metricsOut != "" {
			if err := writeFile(*v.metricsOut, v.ms.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nmetrics dump written to %s\n", *v.metricsOut)
		}
	}
	if v.Offline() {
		f, err := os.Open(*v.in)
		if err != nil {
			return err
		}
		v.tr, err = trace.ReadLog(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *v.in, err)
		}
		fmt.Fprintf(w, "%s: %d events\n", *v.in, v.tr.Len())
	}
	if v.tr == nil {
		return nil
	}
	if d := v.tr.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d trace events dropped (per-node buffer limit): the event counts, biographies and timeline below are lower bounds, and the critical path is computed over a log short by that many events\n", tool(), d)
	}
	if *v.traceOut != "" || *v.pages > 0 {
		writeEventSummary(w, v.tr)
	}

	var flows []trace.Flow
	if *v.critpath != "" {
		recs, makespan := span.Records(v.tr.Events())
		flows = span.Flows(recs)
		// Every matched edge must point backward in time. The projection can
		// only produce such edges; a violation means a corrupted log.
		for _, fl := range flows {
			if fl.FromT > fl.ToT {
				return fmt.Errorf("non-causal edge %s: pub at %d after sub at %d", fl.Name, fl.FromT, fl.ToT)
			}
		}
		rep, err := span.Analyze(recs, makespan)
		if err != nil {
			return err
		}
		if rep.MatchedEdges == 0 {
			return errors.New("edge set is empty: no sub record found a causal pub")
		}
		report := func(w io.Writer) error { return span.WriteReport(w, rep, *v.k) }
		if *v.critpath == "-" {
			fmt.Fprintln(w)
			err = report(w)
		} else if err = writeFile(*v.critpath, report); err == nil {
			fmt.Fprintf(w, "critical-path report written to %s\n", *v.critpath)
		}
		if err != nil {
			return err
		}
	}
	if *v.pages > 0 {
		fmt.Fprintln(w)
		if err := span.WriteBiographies(w, span.Biographies(v.tr.Events()), *v.pages); err != nil {
			return err
		}
	}
	if *v.logOut != "" {
		if err := writeFile(*v.logOut, v.tr.WriteLog); err != nil {
			return err
		}
		fmt.Fprintf(w, "log written to %s\n", *v.logOut)
	}
	if *v.traceOut != "" {
		write := v.tr.WriteCSV
		if *v.traceFormat == "perfetto" {
			write = func(w io.Writer) error { return v.tr.WritePerfettoFlows(w, flows) }
		}
		if err := writeFile(*v.traceOut, write); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s timeline written to %s\n", *v.traceFormat, *v.traceOut)
	}
	return nil
}

// writeHotSpots prints the "where does the time go" tables: the top pages by
// protocol traffic (migratory data shows in the inval column), the top locks
// by contention, and every latency distribution and counter that recorded
// anything.
func writeHotSpots(w io.Writer, ms *metrics.Suite, top int) {
	if pages := ms.Pages.TopK(top, metrics.TotalPageActivity); len(pages) > 0 {
		fmt.Fprintf(w, "\nhot pages (top %d by protocol events):\n", len(pages))
		fmt.Fprintf(w, "  %-8s %8s %8s %8s %8s %8s %8s\n",
			"page", "rd-miss", "wr-miss", "wrback", "inval", "notify", "evict")
		for _, p := range pages {
			fmt.Fprintf(w, "  %-8d %8d %8d %8d %8d %8d %8d\n",
				p.Page, p.ReadMisses, p.WriteMisses, p.Writebacks,
				p.Invalidations, p.Notifies, p.Evictions)
		}
	}
	if locksTop := ms.Locks.TopK(top, metrics.TotalLockActivity); len(locksTop) > 0 {
		fmt.Fprintf(w, "\nhot locks (top %d by total wait):\n", len(locksTop))
		fmt.Fprintf(w, "  %-14s %9s %12s %12s %10s %8s %8s %9s\n",
			"lock", "acquires", "wait-ns", "held-ns", "mean-wait", "local", "remote", "delegated")
		for _, l := range locksTop {
			fmt.Fprintf(w, "  %-14s %9d %12d %12d %10.0f %8d %8d %9d\n",
				l.Name, l.Acquires, l.WaitNs, l.HeldNs, l.MeanWait,
				l.Local, l.Remote, l.Delegated)
		}
	}
	d := ms.Dump()
	if len(d.Histograms) > 0 {
		fmt.Fprintf(w, "\nlatency distributions (virtual ns):\n")
		fmt.Fprintf(w, "  %-52s %9s %9s %9s %9s %9s %9s\n",
			"series", "count", "p50", "p90", "p99", "p999", "max")
		for _, h := range d.Histograms {
			if h.Count != 0 {
				fmt.Fprintf(w, "  %-52s %9d %9d %9d %9d %9d %9d\n",
					seriesName(h.Name, h.Labels), h.Count, h.P50, h.P90, h.P99, h.P999, h.Max)
			}
		}
	}
	if len(d.Counters) > 0 {
		fmt.Fprintf(w, "\ncounters:\n")
		for _, c := range d.Counters {
			if c.Value != 0 {
				fmt.Fprintf(w, "  %-52s %12d\n", seriesName(c.Name, c.Labels), c.Value)
			}
		}
	}
}

func seriesName(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

// writeEventSummary prints how often each kind of event was traced, most
// frequent first and equal counts by name.
func writeEventSummary(w io.Writer, tr *trace.Tracer) {
	sum := tr.Summary()
	kinds := make([]probe.Kind, 0, len(sum))
	for k := range sum {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if sum[kinds[i]] != sum[kinds[j]] {
			return sum[kinds[i]] > sum[kinds[j]]
		}
		return kinds[i].String() < kinds[j].String()
	})
	fmt.Fprintf(w, "\nevent counts:\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-18s %d\n", k, sum[k])
	}
}
