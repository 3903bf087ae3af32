// Package harness regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is registered under the paper's label
// (table1, fig1, fig7 … fig13f) and prints the same rows or series the
// paper reports; cmd/argo-bench is the CLI front end and bench_test.go
// wraps the same runners as testing.B benchmarks.
//
// Inputs are scaled to simulator size (documented in EXPERIMENTS.md); the
// quantities of interest are shapes — who wins, by what factor, where
// scaling stops — not absolute seconds.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one reproducible table or figure. Run prints it and returns
// an error naming every cell whose answer failed its check: the table shows
// such a cell as BADCHECK (or FAIL), which nobody skimming fourteen figures is
// sure to see, so the caller is told as well.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, quick bool) error
}

var registry = map[string]Experiment{}

func register(id, title string, run func(w io.Writer, quick bool) error) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// unchecked adapts an experiment that computes no answer it could check.
func unchecked(run func(w io.Writer, quick bool)) func(io.Writer, bool) error {
	return func(w io.Writer, quick bool) error {
		run(w, quick)
		return nil
	}
}

// badCells collects the cells of one experiment whose answer is not the
// reference answer.
type badCells []string

// cell returns text, or BADCHECK — recording which system at which scale —
// when got is not the reference answer ref.
func (b *badCells) cell(text string, got, ref float64, system, scale string) string {
	if got == ref || closeEnough(got, ref) {
		return text
	}
	*b = append(*b, system+" at "+scale)
	return "BADCHECK"
}

// err is nil when every cell passed, and otherwise counts and names the bad
// ones.
func (b badCells) err() error {
	if len(b) == 0 {
		return nil
	}
	return fmt.Errorf("bad checks (%d): %s", len(b), strings.Join(b, ", "))
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Table renders an aligned text table.
func Table(w io.Writer, title string, headers []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }
