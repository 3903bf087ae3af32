package harness

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"argo/internal/core"
	"argo/internal/workloads/wload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig7", "fig8", "fig9-10", "fig11",
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
	Fprint(&b,
		Table{Title: "T", Headers: []string{"A", "LongHeader"}, Rows: [][]string{{"1", "2"}, {"333333", "4"}}, Note: "first\nsecond"},
		Table{Title: "Empty", Headers: []string{"X", "Y"}})
	want := "\n== T ==\n" +
		"A       LongHeader\n" +
		"------  ----------\n" +
		"1       2\n" +
		"333333  4\n" +
		"first\nsecond\n" +
		"\n== Empty ==\n" +
		"X  Y\n" +
		"-  -\n"
	if got := b.String(); got != want {
		t.Fatalf("rendered\n%q\nwant\n%q", got, want)
	}
}

// cells reads an experiment's tables by row label (a row's first cell) and
// header, and remembers what it read so that a failing claim can say so.
type cells struct {
	tables []Table
	read   []string
}

// at returns the cell of table ti in the row labelled row under header; a
// cell that is not there reads "".
func (c *cells) at(ti int, row, header string) string {
	v := ""
	if ti < len(c.tables) {
		tb := c.tables[ti]
		if h := slices.Index(tb.Headers, header); h >= 0 {
			for _, r := range tb.Rows {
				if r[0] == row && h < len(r) {
					v = r[h]
				}
			}
		}
	}
	c.read = append(c.read, fmt.Sprintf("%s[%s]=%q", header, row, v))
	return v
}

// num is the cell at as a number; one that is not a number reads NaN, which
// fails every comparison.
func (c *cells) num(ti int, row, header string) float64 {
	v, err := strconv.ParseFloat(c.at(ti, row, header), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// labels returns the row labels of table ti, in order.
func (c *cells) labels(ti int) []string {
	var out []string
	if ti < len(c.tables) {
		for _, r := range c.tables[ti].Rows {
			out = append(out, r[0])
		}
	}
	c.read = append(c.read, fmt.Sprintf("%d rows", len(out)))
	return out
}

// last returns the label of table ti's last row, or "" if it has none.
func (c *cells) last(ti int) string {
	if ls := c.labels(ti); len(ls) > 0 {
		return ls[len(ls)-1]
	}
	return ""
}

// nodes returns table ti's distinct row labels, in order. The fig13 tables
// label every row by its node count and give one node several thread counts;
// at reads the last row of a label, the node's full thread count.
func (c *cells) nodes(ti int) []string {
	return slices.Compact(c.labels(ti))
}

// rises reports whether the column under header grows at every node count of
// table ti.
func (c *cells) rises(ti int, header string) bool {
	prev := math.Inf(-1)
	for _, n := range c.nodes(ti) {
		v := c.num(ti, n, header)
		if !(v > prev) {
			return false
		}
		prev = v
	}
	return true
}

// claim is one sentence of the paper's evaluation as a predicate over the
// cells of one experiment's -quick tables.
type claim struct {
	exp   string
	says  string
	holds func(c *cells) bool
}

// check evaluates the claim over tables and, when it does not hold, names
// every cell it compared.
func (cl claim) check(tables []Table) error {
	c := &cells{tables: tables}
	if cl.holds(c) {
		return nil
	}
	return fmt.Errorf("%s: %q does not hold; read %s", cl.exp, cl.says, strings.Join(c.read, ", "))
}

// claims is the paper's evaluation, row by row, in the testCase-matrix shape:
// an experiment, its sentence, and the predicate that reads its cells.
//
// The fig13 rows read the -quick tables at 1, 2 and 4 nodes. Three of the
// paper's fig9-13 claims need a mid-size input and have no row here, because
// the -quick tables do not show them:
//   - the fig9-10 writeback cliff: -quick MM writebacks read 6 at every
//     write-buffer size from 8 to 32 768 pages;
//   - fig13a's "multi-node Argo beats the best Pthreads": Argo reads 2.42 at
//     2 nodes against Pthreads' 2.80;
//   - fig13f's "UPC is the fastest single node": UPC reads 1.03 against
//     Argo's 3.41.
var claims = []claim{
	// Table 1 (tables: S, P/S, P/S3).
	{"table1", "P/S3 classifies shared pages as S,NW, S,SW and S,MW", func(c *cells) bool {
		return c.at(2, "S,NW", "State") != "" && c.at(2, "S,SW (self)", "State") != "" && c.at(2, "S,MW", "State") != ""
	}},
	{"table1", "under P/S3 an S,MW page self-invalidates", func(c *cells) bool { return c.at(2, "S,MW", "SI") == "X" }},
	{"table1", "under P/S3 an S,NW page does not self-invalidate", func(c *cells) bool { return c.at(2, "S,NW", "SI") == "—" }},

	{"fig1", "the trend dataset runs from 1992 to 2011's 1700-cycle network latency", func(c *cells) bool {
		return c.at(0, "1992", "Year") == "1992" && c.at(0, "2011", "Net lat (cyc)") == "1700"
	}},

	{"fig7", "the bandwidth curve has at least four transfer sizes", func(c *cells) bool { return len(c.labels(0)) >= 4 }},
	{"fig7", "an Argo line fetch never exceeds the raw one-sided read it is built on", func(c *cells) bool {
		for _, size := range c.labels(0) {
			if !(c.num(0, size, "Argo MB/s") <= c.num(0, size, "RMA MB/s")) {
				return false
			}
		}
		return true
	}},
	{"fig7", "Argo's read bandwidth grows with the line size", func(c *cells) bool {
		prev := 0.0
		for _, size := range c.labels(0) {
			argo := c.num(0, size, "Argo MB/s")
			if !(argo >= prev) {
				return false
			}
			prev = argo
		}
		return true
	}},

	{"fig8", "execution times are normalized to S", func(c *cells) bool { return c.num(0, "Average", "S") == 1.0 }},
	{"fig8", "naive P/S is on average within noise of S", func(c *cells) bool {
		ps := c.num(0, "Average", "PS")
		return ps >= 0.85 && ps <= 1.25
	}},
	{"fig8", "P/S3 on average beats both S and naive P/S", func(c *cells) bool {
		ps, ps3 := c.num(0, "Average", "PS"), c.num(0, "Average", "PS3")
		return ps3 < ps && ps3 < 0.99
	}},

	{"fig11", "at the most threads QD beats Cohort, which beats the Pthreads mutex", func(c *cells) bool {
		top := c.last(0)
		qd, co, pt := c.num(0, top, "QD ops/µs"), c.num(0, top, "Cohort ops/µs"), c.num(0, top, "Pthreads ops/µs")
		return qd > co && co > pt
	}},

	{"fig12", "the DSM throughput curves have at least two node counts", func(c *cells) bool { return len(c.labels(0)) >= 2 }},
	{"fig12", "HQDL beats the fenced Cohort port at every node count", func(c *cells) bool {
		for _, n := range c.labels(0) {
			if !(c.num(0, n, "Argo(HQDL) ops/µs") > c.num(0, n, "Cohort ops/µs")) {
				return false
			}
		}
		return true
	}},
	{"fig12", "at the most nodes HQDL beats UPC's cache-less critical sections (§2.1)", func(c *cells) bool {
		top := c.last(0)
		return c.num(0, top, "Argo(HQDL) ops/µs") > c.num(0, top, "UPC ops/µs")
	}},

	{"fig13b", "N-body on Argo speeds up at every node count", func(c *cells) bool { return c.rises(0, "Argo") }},
	{"fig13b", "N-body on MPI peaks before the most nodes and then falls", func(c *cells) bool {
		ns := c.nodes(0)
		if len(ns) < 2 {
			return false
		}
		peak := 0.0
		for _, n := range ns[:len(ns)-1] {
			peak = max(peak, c.num(0, n, "MPI"))
		}
		return c.num(0, ns[len(ns)-1], "MPI") < peak
	}},

	{"fig13c", "blackscholes on Argo speeds up at every node count", func(c *cells) bool { return c.rises(0, "Argo") }},
	{"fig13c", "at the most nodes blackscholes on Argo beats MPI", func(c *cells) bool {
		top := c.last(0)
		return c.num(0, top, "Argo") > c.num(0, top, "MPI")
	}},

	{"fig13d", "on one node MPI beats Argo on the large MM input", func(c *cells) bool {
		return c.num(0, "1", "MPI-L") > c.num(0, "1", "Argo-L")
	}},
	{"fig13d", "at the most nodes Argo beats MPI on the small MM input", func(c *cells) bool {
		top := c.last(1)
		return c.num(1, top, "Argo-S") > c.num(1, top, "MPI-S")
	}},

	{"fig13e", "EP on Argo and on UPC speeds up at every node count", func(c *cells) bool {
		return c.rises(0, "Argo") && c.rises(0, "UPC")
	}},

	{"fig13f", "CG on UPC is below Argo from 2 nodes on", func(c *cells) bool {
		ns := c.nodes(0)
		for _, n := range ns[min(1, len(ns)):] {
			if !(c.num(0, n, "UPC") < c.num(0, n, "Argo")) {
				return false
			}
		}
		return len(ns) >= 2
	}},
	{"fig13f", "CG on UPC is slower at the most nodes than on one", func(c *cells) bool {
		return c.num(0, c.last(0), "UPC") < c.num(0, "1", "UPC")
	}},
}

// slowClaims are the experiments whose claims -short skips.
var slowClaims = map[string]bool{"fig8": true, "fig11": true, "fig12": true}

// TestClaims runs each experiment of the claims table once, at -quick size,
// and evaluates every claim on its tables.
func TestClaims(t *testing.T) {
	var ids []string
	byExp := map[string][]claim{}
	for _, cl := range claims {
		if byExp[cl.exp] == nil {
			ids = append(ids, cl.exp)
		}
		byExp[cl.exp] = append(byExp[cl.exp], cl)
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			if slowClaims[id] && testing.Short() {
				t.Skip("short mode")
			}
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("no experiment %s", id)
			}
			tables, err := e.Run(true)
			if err != nil {
				t.Fatal(err)
			}
			for _, cl := range byExp[id] {
				if err := cl.check(tables); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// A claim fed a table that breaks it fails, and says which cells it read.
func TestClaimNamesItsCells(t *testing.T) {
	var cl claim
	for _, c := range claims {
		if c.exp == "fig12" && strings.HasPrefix(c.says, "HQDL beats the fenced Cohort") {
			cl = c
		}
	}
	fake := []Table{{
		Headers: []string{"Nodes", "Threads", "Argo(HQDL) ops/µs", "Cohort ops/µs", "UPC ops/µs"},
		Rows:    [][]string{{"1", "4", "0.600", "0.100", "0.050"}, {"2", "8", "0.090", "0.100", "0.050"}},
	}}
	err := cl.check(fake)
	if err == nil {
		t.Fatal("HQDL below Cohort at 2 nodes and the claim holds")
	}
	for _, want := range []string{`Argo(HQDL) ops/µs[2]="0.090"`, `Cohort ops/µs[2]="0.100"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("message %q does not name %s", err, want)
		}
	}
	fake[0].Rows[1][2] = "0.200"
	if err := cl.check(fake); err != nil {
		t.Fatalf("HQDL above Cohort everywhere and the claim fails: %v", err)
	}
}

// Figures 9 and 10 are two views of one sweep: the same sizes down the side
// and the same benchmarks across the top.
func TestFig9and10OneSweep(t *testing.T) {
	tables, err := fig9and10(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig9-10 returned %d tables, want runtime and writebacks", len(tables))
	}
	times, wbs := tables[0], tables[1]
	if !reflect.DeepEqual(times.Headers, wbs.Headers) {
		t.Errorf("headers differ: %v vs %v", times.Headers, wbs.Headers)
	}
	if len(times.Rows) != len(wbSizes(true)) || len(wbs.Rows) != len(times.Rows) {
		t.Fatalf("%d runtime rows and %d writeback rows for %d sizes", len(times.Rows), len(wbs.Rows), len(wbSizes(true)))
	}
	for i := range times.Rows {
		if times.Rows[i][0] != wbs.Rows[i][0] {
			t.Errorf("row %d labelled %s in one table and %s in the other", i, times.Rows[i][0], wbs.Rows[i][0])
		}
	}
}

// Each fig13d input is its own table, and a Pthread baseline's speedup sits
// under that input's Pthread header: the thread-count rows fill only the
// Pthread column, the node-count rows every column but it.
func TestFig13dPthreadColumns(t *testing.T) {
	e, _ := Lookup("fig13d")
	tables, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig13d returned %d tables, want one per input", len(tables))
	}
	local := len(threadsFor(true))
	for _, tb := range tables {
		for r, row := range tb.Rows {
			for c := 2; c < len(row); c++ {
				pthread := strings.HasPrefix(tb.Headers[c], "Pthread")
				if (row[c] != "") != (pthread == (r < local)) {
					t.Errorf("%s: row %s×%s has %q under %s", tb.Title, row[0], row[1], row[c], tb.Headers[c])
				}
			}
		}
	}
}

// fakeKernel is a kernel row over stub runners: every answer is 42 (give or
// take closeEnough's tolerance) except the runs wrong picks, whose is 43.
func fakeKernel(wrong func(system string, scale int) bool) (*kernel, *input) {
	run := func(system string, scale int) wload.Result {
		r := wload.Result{Time: 500, Check: 42 + 1e-9}
		if wrong(system, scale) {
			r.Check = 43
		}
		return r
	}
	in := &input{
		argo:  func(cfg core.Config, tpn int) wload.Result { return run("Argo", cfg.Nodes) },
		local: func(t int) wload.Result { return run("OpenMP", t) },
		port:  func(n int) wload.Result { return run("UPC", n) },
	}
	in.once.Do(func() { in.ref = wload.Result{Time: 1000, Check: 42} })
	return &kernel{name: "fake", table: "T", local: "OpenMP", port: "UPC"}, in
}

// A kernel's Argo run returns the error a wrong answer gives: it names the
// kernel, the variant and the scale. An answer within closeEnough's tolerance
// is the serial one.
func TestArgoRunChecksItsAnswer(t *testing.T) {
	k, in := fakeKernel(func(system string, nodes int) bool { return nodes == 4 })
	if _, err := k.argo(in, wload.ArgoConfig(2, 4<<20), 3, "mode PS3"); err != nil {
		t.Fatalf("an answer 1e-9 from the serial one is wrong: %v", err)
	}
	_, err := k.argo(in, wload.ArgoConfig(4, 4<<20), 3, "mode PS3")
	if err == nil {
		t.Fatal("an answer 1 from the serial one passed its check")
	}
	for _, want := range []string{"fake", "mode PS3", "4 nodes, 12 threads", "43", "42"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// A runner whose answer is wrong must not hide in the table: its cell reads
// BADCHECK and the error names the kernel, the system and the scale, which is
// what argo-bench prints before it exits non-zero.
func TestScalingTableReportsBadChecks(t *testing.T) {
	badChecks := func(tb Table) int {
		n := 0
		for _, row := range tb.Rows {
			for _, c := range row {
				if c == "BADCHECK" {
					n++
				}
			}
		}
		return n
	}
	k, in := fakeKernel(func(system string, scale int) bool { return system != "Argo" && scale == 4 })
	tb, err := k.scalingTable(in, []int{2, 4}, []int{1, 4})
	if got := badChecks(tb); got != 2 {
		t.Fatalf("table shows %d BADCHECK cells, want 2: %v", got, tb)
	}
	if err == nil {
		t.Fatal("two bad cells and no error")
	}
	for _, want := range []string{"bad checks (2)", "fake UPC at 4 nodes, 60 threads", "fake OpenMP at 1 nodes, 4 threads"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	k, in = fakeKernel(func(string, int) bool { return false })
	tb, err = k.scalingTable(in, []int{2, 4}, []int{1})
	if err != nil || badChecks(tb) != 0 {
		t.Fatalf("a table of right answers reports %v: %v", err, tb)
	}
}
