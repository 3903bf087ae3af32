package harness

import (
	"argo/internal/coherence"
	"argo/internal/directory"
)

func init() {
	register("table1", "Table 1: SI/SD actions per classification, derived from the live protocol", table1)
	register("fig1", "Figure 1: technology trends normalized to CPU cycles", fig1)
}

// table1 is Table 1 of the paper. Rather than restating the table, it
// derives the SI column from coherence.ShouldSelfInvalidate — the function
// the fences actually execute — so the table is checked against the code.
func table1(bool) ([]Table, error) {
	const self = 0
	mkEntry := func(readers, writers []int) directory.Entry {
		var e directory.Entry
		for _, r := range readers {
			e.R.Set(r)
		}
		for _, wr := range writers {
			e.W.Set(wr)
		}
		return e
	}
	type state struct {
		label   string
		entry   directory.Entry
		comment string
	}
	mark := func(b bool) string {
		if b {
			return "X"
		}
		return "—"
	}

	// Mode S: no classification — everything is shared.
	headers := []string{"State", "SI", "SD", "Comment"}
	tables := []Table{{Title: "Classification S (no classification)", Headers: headers, Rows: [][]string{
		{"S", mark(coherence.ShouldSelfInvalidate(coherence.ModeS, mkEntry([]int{0, 1}, nil), self)), "X", "all pages shared"},
	}}}

	// Mode P/S.
	ps := []state{
		{"P", mkEntry([]int{self}, nil), "naive: checkpointed (not continuously downgraded)"},
		{"S", mkEntry([]int{0, 1}, []int{1}), ""},
	}
	var rows [][]string
	for _, s := range ps {
		si := coherence.ShouldSelfInvalidate(coherence.ModePS, s.entry, self)
		rows = append(rows, []string{s.label, mark(si), "X", s.comment})
	}
	tables = append(tables, Table{Title: "Classification P/S (naive)", Headers: headers, Rows: rows})

	// Mode P/S3.
	ps3 := []state{
		{"P", mkEntry([]int{self}, []int{self}), "SD to avoid P→S forced downgrade"},
		{"S,NW", mkEntry([]int{0, 1}, nil), ""},
		{"S,SW (self)", mkEntry([]int{0, 1}, []int{self}), "the single writer does not SI"},
		{"S,SW (other)", mkEntry([]int{0, 1}, []int{1}), "everyone else does"},
		{"S,MW", mkEntry([]int{0, 1}, []int{0, 1}), ""},
	}
	rows = nil
	for _, s := range ps3 {
		si := coherence.ShouldSelfInvalidate(coherence.ModePS3, s.entry, self)
		rows = append(rows, []string{s.label, mark(si), "X", s.comment})
	}
	return append(tables, Table{Title: "Classification P/S3 (Argo)", Headers: headers, Rows: rows,
		Note: "SD is unconditional for cached dirty pages in every mode (write-through at sync)."}), nil
}

// fig1Data is the technology-trend dataset of Figure 1 (adapted from
// Ramesh's thesis), all normalized to CPU cycles.
var fig1Data = []struct {
	year             int
	cpuMHz           int
	dramLatCycles    int
	netBWCyclesPerKB int
	netLatCycles     int
}{
	{1992, 200, 16, 1092, 40000},
	{1994, 500, 35, 2731, 50000},
	{1997, 1000, 70, 3901, 30000},
	{2000, 2400, 168, 2313, 24000},
	{2005, 3200, 224, 1311, 4160},
	{2007, 3200, 192, 655, 4160},
	{2009, 3300, 165, 211, 3300},
	{2011, 3400, 170, 111, 1700},
}

func fig1(bool) ([]Table, error) {
	rows := make([][]string, 0, len(fig1Data))
	for _, r := range fig1Data {
		rows = append(rows, []string{
			d(int64(r.year)), d(int64(r.cpuMHz)), d(int64(r.dramLatCycles)),
			d(int64(r.netBWCyclesPerKB)), d(int64(r.netLatCycles)),
			f1(float64(r.netLatCycles) / float64(r.dramLatCycles)),
		})
	}
	return []Table{{Title: "Trends normalized to CPU cycles",
		Headers: []string{"Year", "CPU MHz", "DRAM lat (cyc)", "Net BW (cyc/KB)", "Net lat (cyc)", "Net/DRAM"}, Rows: rows,
		Note: "The Net/DRAM ratio fell from ~2500x to ~10x: message-handler overhead now dominates;\n" +
			"trading bandwidth for latency became the right design point (the premise of Argo)."}}, nil
}
