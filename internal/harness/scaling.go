package harness

import (
	"errors"
	"fmt"

	"argo/internal/workloads/wload"
)

func init() {
	for _, k := range kernels {
		register(k.fig, k.title, k.scalingFig)
	}
}

const scalingTPN = 15 // the paper leaves one core per node for the OS

// scalingFig is a kernel's fig13: one table per scaling input.
func (k *kernel) scalingFig(quick bool) ([]Table, error) {
	var tables []Table
	var errs []error
	for _, s := range k.scaling {
		t, err := k.scalingTable(s.at(quick), nodesFor(quick, k.maxNodes), threadsFor(quick))
		tables, errs = append(tables, t), append(errs, err)
	}
	return tables, errors.Join(errs...)
}

// scalingTable is one input's speedup-vs-scale series, all normalized to the
// serial (1-thread) run: the single-machine baseline over localThreads on one
// node, then Argo and the MPI or UPC port over nodeCounts. Its error names the
// cells whose answer is not the serial one.
func (k *kernel) scalingTable(in *input, nodeCounts, localThreads []int) (Table, error) {
	serial := in.serial()
	title, suffix := k.table, ""
	if in.tag != "" {
		title, suffix = fmt.Sprintf("%s %s (%s)", k.table, in.size, in.tag), "-"+in.tag
	}
	headers := []string{"Nodes", "Threads", "Argo" + suffix, k.local + suffix}
	if in.port != nil {
		headers = append(headers, k.port+suffix)
	}
	var rows [][]string
	var bad badCells
	cell := func(r wload.Result, system string, nodes, threads int) string {
		return bad.cell(f2(r.Speedup(serial)), k.check(in, r, system, nodes, threads))
	}
	for _, t := range localThreads {
		row := []string{d(1), d(int64(t)), "", cell(in.local(t), headers[3], 1, t)}
		if in.port != nil {
			row = append(row, "")
		}
		rows = append(rows, row)
	}
	for _, n := range nodeCounts {
		row := []string{d(int64(n)), d(int64(n * scalingTPN)), cell(in.argo(wload.ArgoConfig(n, 64<<20), scalingTPN), headers[2], n, n*scalingTPN), ""}
		if in.port != nil {
			row = append(row, cell(in.port(n), headers[4], n, n*scalingTPN))
		}
		rows = append(rows, row)
	}
	return Table{Title: title + fmt.Sprintf(" — speedup over serial (%.3f virtual ms)", float64(serial.Time)/1e6),
		Headers: headers, Rows: rows}, bad.err()
}

func nodesFor(quick bool, max int) []int {
	all := []int{1, 2, 4, 8, 16, 32, 64, 128}
	var out []int
	for _, n := range all {
		if n > max {
			break
		}
		out = append(out, n)
	}
	if quick && len(out) > 3 {
		return out[:3]
	}
	return out
}

func threadsFor(quick bool) []int {
	if quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8, 16}
}
