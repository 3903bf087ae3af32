// Package harness regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is registered under the paper's label
// (table1, fig1, fig7 … fig13f) and returns the same rows or series the
// paper reports as Table values; Fprint renders them. cmd/argo-bench is the
// CLI front end and bench_test.go wraps the same runners as testing.B
// benchmarks.
//
// Inputs are scaled to simulator size (documented in EXPERIMENTS.md); the
// quantities of interest are shapes — who wins, by what factor, where
// scaling stops — not absolute seconds.
package harness

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one reproducible table or figure. Run returns its tables and
// an error naming every cell whose answer failed its check: the table shows
// such a cell as BADCHECK (or FAIL), which nobody skimming fourteen figures is
// sure to see, so the caller is told as well.
type Experiment struct {
	ID    string
	Title string
	Run   func(quick bool) ([]Table, error)
}

var registry = map[string]Experiment{}

func register(id, title string, run func(quick bool) ([]Table, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// Table is one figure or table as values: the cells of Rows line up with
// Headers, and Note (lines of prose, possibly several) reads under it.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Note    string
}

// badCells collects the errors of one experiment's cells whose answer is not
// the reference answer.
type badCells []error

// cell returns text, or BADCHECK when err names a wrong answer, which it
// records.
func (b *badCells) cell(text string, err error) string {
	if err == nil {
		return text
	}
	*b = append(*b, err)
	return "BADCHECK"
}

// err is nil when every cell passed, and otherwise counts and names the bad
// ones.
func (b badCells) err() error {
	if len(b) == 0 {
		return nil
	}
	return fmt.Errorf("bad checks (%d):\n%w", len(b), errors.Join(b...))
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

// Fprint renders each table as aligned text under a "== title ==" line,
// followed by its note.
func Fprint(w io.Writer, tables ...Table) {
	for _, t := range tables {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
		widths := make([]int, len(t.Headers))
		for i, h := range t.Headers {
			widths[i] = len(h)
		}
		for _, r := range t.Rows {
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
		line(t.Headers)
		sep := make([]string, len(t.Headers))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		line(sep)
		for _, r := range t.Rows {
			line(r)
		}
		if t.Note != "" {
			fmt.Fprintln(w, t.Note)
		}
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }
