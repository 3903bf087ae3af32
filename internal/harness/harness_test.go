package harness

import (
	"strconv"
	"strings"
	"testing"

	"argo/internal/workloads/wload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13a", "fig13b", "fig13c", "fig13d", "fig13e", "fig13f",
		"crash",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestTableRendering(t *testing.T) {
	var b strings.Builder
	Table(&b, "T", []string{"A", "LongHeader"}, [][]string{{"1", "2"}, {"333333", "4"}})
	out := b.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "LongHeader") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTable1DerivesFromProtocol(t *testing.T) {
	var b strings.Builder
	table1(&b, true)
	out := b.String()
	// The crucial rows of Table 1.
	for _, want := range []string{"S,NW", "S,SW (self)", "S,MW"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing state %q", want)
		}
	}
	// S,MW must SI; S,NW must not.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "S,MW") && !strings.Contains(line, "X") {
			t.Errorf("S,MW row does not self-invalidate: %q", line)
		}
		if strings.HasPrefix(line, "S,NW") && strings.Contains(strings.Fields(line)[1], "X") {
			t.Errorf("S,NW row self-invalidates: %q", line)
		}
	}
}

func TestFig1Static(t *testing.T) {
	var b strings.Builder
	fig1(&b, true)
	if !strings.Contains(b.String(), "1700") || !strings.Contains(b.String(), "1992") {
		t.Fatal("fig1 dataset incomplete")
	}
}

// parseLastFloat pulls the numeric cells out of a table row.
func rowFloats(line string) []float64 {
	var out []float64
	for _, f := range strings.Fields(line) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

func TestFig7ArgoTracksRMA(t *testing.T) {
	var b strings.Builder
	fig7(&b, true)
	lines := strings.Split(b.String(), "\n")
	var prevArgo float64
	rows := 0
	for _, l := range lines {
		fs := rowFloats(l)
		if len(fs) != 3 {
			continue
		}
		rows++
		argoBW, rmaBW := fs[1], fs[2]
		if argoBW > rmaBW {
			t.Errorf("Argo bandwidth %v exceeds raw RMA %v", argoBW, rmaBW)
		}
		if argoBW < prevArgo {
			t.Errorf("Argo bandwidth not monotone: %v after %v", argoBW, prevArgo)
		}
		prevArgo = argoBW
	}
	if rows < 4 {
		t.Fatalf("fig7 produced %d rows", rows)
	}
	_ = rows
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var b strings.Builder
	fig8(&b, true)
	out := b.String()
	var avg []float64
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "Average") {
			avg = rowFloats(l)
		}
	}
	if len(avg) != 3 {
		t.Fatalf("no average row in fig8 output:\n%s", out)
	}
	s, ps, ps3 := avg[0], avg[1], avg[2]
	if s != 1.0 {
		t.Fatalf("S not normalized to 1: %v", s)
	}
	// The paper's result: naive P/S is no better than S; P/S3 wins.
	if ps < 0.85 || ps > 1.25 {
		t.Errorf("naive P/S average %v should be within noise of S", ps)
	}
	if ps3 >= ps || ps3 >= 0.99 {
		t.Errorf("P/S3 average %v should beat both S and P/S (%v)", ps3, ps)
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var b strings.Builder
	fig11(&b, true)
	var last []float64
	for _, l := range strings.Split(b.String(), "\n") {
		if fs := rowFloats(l); len(fs) == 4 {
			last = fs
		}
	}
	if last == nil {
		t.Fatal("no data rows in fig11")
	}
	qd, cohort, pthread := last[1], last[2], last[3]
	if !(qd > cohort && cohort > pthread) {
		t.Errorf("lock ordering at max threads broken: QD=%v Cohort=%v Pthreads=%v", qd, cohort, pthread)
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var b strings.Builder
	fig12(&b, true)
	var rows [][]float64
	for _, l := range strings.Split(b.String(), "\n") {
		if fs := rowFloats(l); len(fs) == 5 {
			rows = append(rows, fs)
		}
	}
	if len(rows) < 2 {
		t.Fatalf("fig12 produced %d rows", len(rows))
	}
	for _, r := range rows {
		hqdl, cohort := r[2], r[3]
		if hqdl <= cohort {
			t.Errorf("nodes=%v: HQDL %v not above cohort %v", r[0], hqdl, cohort)
		}
	}
	// Beyond one node, the cached-but-fenced cohort port should still beat
	// cache-less UPC critical sections (§2.1).
	last := rows[len(rows)-1]
	if last[2] <= last[4] {
		t.Errorf("HQDL %v not above UPC %v at max nodes", last[2], last[4])
	}
}

// A runner whose answer is wrong must not hide in the table: its cell reads
// BADCHECK and the printer's error names the system and the scale, which is
// what argo-bench prints before it exits non-zero.
func TestScalingTableReportsBadChecks(t *testing.T) {
	serial := wload.Result{System: "serial", Threads: 1, Time: 1000, Check: 42}
	right := func(int) wload.Result { return wload.Result{Time: 500, Check: 42 + 1e-9} }
	corrupt := func(n int) wload.Result {
		r := right(n)
		if n == 4 {
			r.Check = 43
		}
		return r
	}
	var b strings.Builder
	err := scalingTable(&b, "T", serial, []int{2, 4}, []int{1, 4}, []runner{
		{"Argo", "argo", right},
		{"UPC", "upc", corrupt},
		{"OpenMP", "local", corrupt},
	})
	if got := strings.Count(b.String(), "BADCHECK"); got != 2 {
		t.Fatalf("table shows %d BADCHECK cells, want 2:\n%s", got, b.String())
	}
	if err == nil {
		t.Fatal("two bad cells and no error")
	}
	for _, want := range []string{"bad checks (2)", "UPC at 4 nodes, 60 threads", "OpenMP at 1 nodes, 4 threads"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	b.Reset()
	if err := scalingTable(&b, "T", serial, []int{2, 4}, []int{1}, []runner{{"Argo", "argo", right}}); err != nil || strings.Contains(b.String(), "BADCHECK") {
		t.Fatalf("a table of right answers reports %v:\n%s", err, b.String())
	}
}
