package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func endToEndDef(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func TestNamesAndLimits(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if len(workloads) != 6 {
		t.Errorf("%d workloads, the ledger fixes six", len(workloads))
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	if len(perLayer) != 81 {
		t.Errorf("%d per-layer metrics, the issue names 81", len(perLayer))
	}
	widest := 0.0
	for _, m := range endToEnd {
		name("end-to-end metric", m.Name)
		if b := m.maxBound(); b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, b)
		}
		widest = math.Max(widest, m.maxBound())
		for w := range m.BoundOn {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s: bound override for unknown workload %q", m.Name, w)
			}
		}
	}
	if s, ok := endToEndDef("setup_s"); !ok || s.Unit != "s" || s.Better != "lower" || s.maxBound() != widest {
		t.Errorf("setup_s must exist in seconds, lower is better, with the largest bound: %+v", s)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Clock == "" || m.Doc == "" {
			t.Errorf("%s: needs a clock and a description", m.Name)
		}
	}
	for _, m := range perLayer {
		name("per-layer metric", m.Name)
	}
}

func TestEveryLayerMetricHasAnInteractionRow(t *testing.T) {
	covered := map[string]bool{}
	for i, row := range interactions {
		for _, l := range row.Layer {
			found := false
			for _, m := range perLayer {
				found = found || m.Name == l
			}
			if !found {
				t.Errorf("row %d names unknown per-layer metric %q", i, l)
			}
			covered[l] = true
		}
		if len(row.Moves) == 0 || len(row.On)+len(row.NotOn) == 0 {
			t.Errorf("row %d predicts nothing", i)
		}
		for _, e := range row.Moves {
			if _, ok := endToEndDef(e); !ok && e != failShare {
				t.Errorf("row %d names unknown end-to-end metric %q", i, e)
			}
		}
		for _, w := range append(append([]string(nil), row.On...), row.NotOn...) {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("row %d names unknown workload %q", i, w)
			}
		}
	}
	for _, m := range perLayer {
		if !covered[m.Name] {
			t.Errorf("per-layer metric %s has no interaction row", m.Name)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %g %g median %g", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles %g %g", q1, q3)
	}
	if d := summarize([]float64{90, 100, 110, 100}, "ms"); math.Abs(d.spread()-0.15) > 1e-12 {
		t.Errorf("spread %g", d.spread())
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 19)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, _, ok := tail(xs); ok {
		t.Error("19 samples cannot have ten beyond a percentile above the median")
	}
	xs = append(xs, 20)
	v, p, ok := tail(xs)
	if !ok || v != 10 || p != 50 {
		t.Errorf("20 samples: value %g percentile %g ok %v, want 10 at p50", v, p, ok)
	}
	for i := 21; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, p, ok = tail(xs)
	if !ok || v != 90 || p != 90 {
		t.Errorf("100 samples: value %g percentile %g, want 90 at p90", v, p)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d samples beyond the tail value, want %d", beyond, tailBeyond)
	}
}

func TestVerdict(t *testing.T) {
	d := func(med, iqr float64) dist { return dist{Median: med, Q1: med - iqr/2, Q3: med + iqr/2, N: 20} }
	for _, c := range []struct {
		old, new dist
		better   string
		want     string
	}{
		{d(100, 2), d(103, 2), "lower", "same"},
		{d(100, 2), d(112, 2), "lower", "worse"},
		{d(100, 2), d(85, 2), "lower", "better"},
		{d(100, 2), d(112, 2), "higher", "better"},
		{d(100, 2), d(85, 2), "higher", "worse"},
		{d(100, 30), d(112, 2), "lower", "unresolved"}, // spread wider than the bound
		{d(100, 2), d(101, 30), "lower", "unresolved"},
		{d(100, 2), dist{}, "lower", "unresolved"},
	} {
		if got := verdict(c.old, c.new, 0.10, c.better); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.old.Median, c.new.Median, c.better, got, c.want)
		}
	}
}

func ledgerOf(host, fail float64, fp string) ledger {
	e2e := map[string]dist{failShare: {Median: fail, N: 10}}
	for _, m := range endToEnd {
		e2e[m.Name] = dist{Median: 100, Q1: 99, Q3: 101, N: 20}
	}
	e2e["host_run_ms"] = dist{Median: host, Q1: host - 1, Q3: host + 1, N: 20}
	return ledger{Workloads: []workloadResult{{Name: "lu_bulk", EndToEnd: e2e, Fingerprint: fp,
		PerLayer: map[string]value{"coherence.read_misses": {Value: host, Unit: "count"}}}}}
}

func TestCompareAndAgree(t *testing.T) {
	var out bytes.Buffer
	if compareLedgers(&out, ledgerOf(100, 0, "same"), ledgerOf(104, 0, "same")) {
		t.Errorf("a 4%% move inside a 15%% bound is no regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "coherence.read_misses") {
		t.Errorf("per-layer moves missing beneath the workload:\n%s", out.String())
	}
	if !compareLedgers(&out, ledgerOf(100, 0, "same"), ledgerOf(140, 0, "same")) {
		t.Error("a 40% slower host_run_ms must regress")
	}
	if !compareLedgers(&out, ledgerOf(100, 0, "same"), ledgerOf(100, 0.1, "same")) {
		t.Error("a higher fail_share must regress")
	}
	if !agree(&out, ledgerOf(100, 0, "same"), ledgerOf(104, 0, "same")) {
		t.Error("two sets 4% apart agree")
	}
	if agree(&out, ledgerOf(100, 0, "same"), ledgerOf(70, 0, "same")) {
		t.Error("two sets 30% apart do not agree, whichever is faster")
	}
	if agree(&out, ledgerOf(100, 0, "same"), ledgerOf(100, 0, "CHANGED (x)")) {
		t.Error("a changed fingerprint must fail the self-check")
	}
}

func TestTracerNestsAndSubtractsChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench", "bench")
	tr.in("a", "x", func() { tr.in("b", "y", func() {}) })
	tr.end(root, 1, 0)
	if len(tr.spans) != 3 || tr.spans[1].Parent != 1 || tr.spans[2].Parent != 2 {
		t.Fatalf("spans %+v", tr.spans)
	}
	var sum int64
	for _, d := range tr.selfTimes() {
		if d < 0 {
			t.Errorf("negative self time %v", d)
		}
		sum += int64(d)
	}
	if total := tr.spans[0].End - tr.spans[0].Start; sum != total {
		t.Errorf("self times sum to %d, the root span lasts %d", sum, total)
	}
	var buf bytes.Buffer
	if err := tr.write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("trace does not load back: %v %+v", err, doc)
	}
	var none *tracer // the timed pass
	none.in("a", "x", func() {})
}

// TestSmoke runs every workload on a tiny input: the answer must check, and
// with a falsified reference every run must count as failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		good := &session{w: w, seed: 42, tiny: true}
		if err := good.setup(nil); err != nil {
			t.Fatal(err)
		}
		good.rep(nil)
		if good.attempted != 2 || good.failed != 0 || len(good.timed) != 1 {
			t.Errorf("%s: attempted %d failed %d: %v", w.name, good.attempted, good.failed, good.errs)
		}
		r := good.result(fingerprints{}, nil, true)
		for _, m := range endToEnd {
			if d := r.EndToEnd[m.Name]; !(d.Median > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, m.Name, d.Median)
			}
		}
		for _, m := range perLayer {
			if _, ok := r.PerLayer[m.Name]; !ok && m.Clock != "host" && m.Clock != "virtual" {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.Name)
			}
		}

		bad := &session{w: w, seed: 42, tiny: true, corrupt: true}
		if err := bad.setup(nil); err != nil {
			t.Fatal(err)
		}
		bad.rep(nil)
		if share := bad.endToEndOf()[failShare].Median; share != 1 {
			t.Errorf("%s: corrupted reference gives fail_share %g, want 1", w.name, share)
		}
	}
}

func TestRepSeedsDifferButWarmUpKeepsTheSeed(t *testing.T) {
	if repSeed(42, 0) != 42 || repSeed(42, 1) == repSeed(42, 2) || repSeed(42, 1) == repSeed(43, 1) {
		t.Error("repSeed must keep the seed for the warm-up and separate runs and seeds")
	}
}

// contract is BENCHMARK.json as the metric and workload tables dictate it.
func contract() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	var es []e2e
	for _, m := range endToEnd {
		es = append(es, e2e{m.Name, m.Unit, m.Better, m.maxBound()})
	}
	var ls []layer
	for _, m := range perLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": 15,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables: exactly the printed
// names, units and bounds. Run with -update to rewrite the file.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(contract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(got))
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("BENCHMARK.json does not parse: %v", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("BENCHMARK.json differs from the metric and workload tables; run go test ./benchmark -run TestBenchmarkJSON -update")
	}
}

func TestRecordedFingerprintsParse(t *testing.T) {
	f, err := loadFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(f.Fixed[w.name]) == 0 {
			t.Errorf("no fingerprint recorded for %s", w.name)
		}
	}
}
