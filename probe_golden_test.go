package argo_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"

	"argo"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/locks"
	"argo/internal/metrics"
	"argo/internal/span"
	"argo/internal/workloads/drf"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/probe_golden.txt from this run")

// goldenCrashSpec is the crash ring's chaos plan: every transient fault kind
// plus crash-restart, so the run reaches the fabric's retry paths, the
// member barrier and the failure detector.
const goldenCrashSpec = "drop=0.02,delay=0.05,jitter=2us,stall=5us,stallp=0.02,atomicfail=0.05,crash=0.05,crashrestart=on,seed=42"

// attachGolden makes every cluster built until the returned function is
// called report into the two stock sinks.
func attachGolden(ms *argo.Metrics, tr *argo.Tracer) (detach func()) {
	core.ConfigHook = func(cfg *core.Config) { cfg.Observers = append(cfg.Observers, ms, tr) }
	return func() { core.ConfigHook = nil }
}

// goldenRing runs the crash-tolerant ring on four nodes under spec.
func goldenRing(t *testing.T, spec string) {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	pr := drf.DefaultRing(4)
	pr.Faults = &plan
	if _, err := drf.RunRing(pr); err != nil {
		t.Fatalf("ring under %s: %v", spec, err)
	}
}

// goldenLocks takes each DSM lock algorithm ten times from rank 1 alone, so
// no acquisition ever waits for another thread and host order cannot matter;
// everyone meets at a barrier at the end.
func goldenLocks() {
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	c := argo.MustNewCluster(cfg)
	slot := c.AllocI64(1)
	mu := locks.NewDSMMutex(c, 0)
	co := locks.NewDSMCohortLock(c)
	hq := locks.NewHQDLock(c)
	c.Run(1, func(th *argo.Thread) {
		if th.Rank == 1 {
			bump := func(h *argo.Thread) { h.SetI64(slot, 0, h.GetI64(slot, 0)+1) }
			for i := 0; i < 10; i++ {
				mu.Lock(th)
				bump(th)
				mu.Unlock(th)
			}
			for i := 0; i < 10; i++ {
				co.Lock(th)
				bump(th)
				co.Unlock(th)
			}
			for i := 0; i < 10; i++ {
				hq.DelegateWait(th, bump)
			}
		}
		th.Barrier()
	})
}

func seriesID(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = k + "=" + labels[k]
	}
	return name + "{" + strings.Join(keys, ",") + "}"
}

// renderGolden prints what the suite holds and what the trace and Pictor read
// in the log, one fact per line.
func renderGolden(ms *argo.Metrics, tr *argo.Tracer) string {
	var b strings.Builder
	d := ms.Dump()
	b.WriteString("# counters\n")
	for _, c := range d.Counters {
		fmt.Fprintf(&b, "%s %d\n", seriesID(c.Name, c.Labels), c.Value)
	}
	b.WriteString("# gauges\n")
	for _, g := range d.Gauges {
		fmt.Fprintf(&b, "%s %d\n", seriesID(g.Name, g.Labels), g.Value)
	}
	b.WriteString("# histograms\n")
	for _, h := range d.Histograms {
		fmt.Fprintf(&b, "%s count=%d sum=%d max=%d\n", seriesID(h.Name, h.Labels), h.Count, h.Sum, h.Max)
	}
	b.WriteString("# hot pages: page rd-miss wr-miss wrback inval notify evict\n")
	for _, p := range ms.Pages.TopK(8, metrics.TotalPageActivity) {
		fmt.Fprintf(&b, "%d %d %d %d %d %d %d\n", p.Page, p.ReadMisses, p.WriteMisses, p.Writebacks, p.Invalidations, p.Notifies, p.Evictions)
	}
	b.WriteString("# hot locks: name acquires wait-ns held-ns local remote delegated\n")
	for _, l := range ms.Locks.TopK(8, metrics.TotalLockActivity) {
		fmt.Fprintf(&b, "%s %d %d %d %d %d %d\n", l.Name, l.Acquires, l.WaitNs, l.HeldNs, l.Local, l.Remote, l.Delegated)
	}

	b.WriteString("# trace summary\n")
	var kinds []string
	for k, n := range tr.Summary() {
		kinds = append(kinds, fmt.Sprintf("%s %d", k, n))
	}
	sort.Strings(kinds)
	b.WriteString(strings.Join(kinds, "\n") + "\n")
	var text strings.Builder
	if err := tr.WriteText(&text); err != nil {
		panic(err)
	}
	lines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	fmt.Fprintf(&b, "sorted trace text: %d lines, fnv %016x\n", len(lines), h.Sum64())

	b.WriteString("# span records\n")
	counts := map[string]int{}
	h = fnv.New64a()
	spans, makespan := span.Records(tr.Events())
	for _, r := range spans {
		switch r.Type {
		case span.RSpan:
			counts["span/"+r.Cat.String()]++
		case span.RPub:
			counts["pub/"+r.Kind.String()]++
		case span.RSub:
			counts["sub/"+r.Kind.String()]++
		}
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d\n", r.Type, r.Node, r.Tid, r.T, r.Start, r.Cat, r.Kind, r.Key, r.Arg)
	}
	var recs []string
	for k, n := range counts {
		recs = append(recs, fmt.Sprintf("%s %d", k, n))
	}
	sort.Strings(recs)
	b.WriteString(strings.Join(recs, "\n") + "\n")
	fmt.Fprintf(&b, "records: makespan %d, fnv %016x\n", makespan, h.Sum64())
	return b.String()
}

// TestProbeGolden pins what the metrics suite sees of three replayable runs —
// a crash-restart ring under every transient fault, the same ring across a
// partition, and an uncontended pass over the three DSM lock algorithms — and
// what the trace and Pictor read in their log, against a file generated
// before the probe spine existed. Every series, the page and lock profiles,
// the trace's event multiset and Pictor's exact records are in it.
func TestProbeGolden(t *testing.T) {
	ms, tr := argo.NewMetrics(), argo.NewTracer(0)
	detach := attachGolden(ms, tr)
	goldenRing(t, goldenCrashSpec)
	goldenRing(t, "partition=0.15,partdur=2,seed=7")
	goldenLocks()
	detach()

	got := renderGolden(ms, tr)
	const path = "testdata/probe_golden.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, g, w)
			}
		}
	}
}
