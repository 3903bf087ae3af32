package span

import (
	"fmt"
	"io"
)

// WriteReport renders rep as the standard human-readable critical-path
// report: path digest, edge counts, the attribution table (which sums to
// the makespan by construction), and the k longest path segments. The text
// is a pure function of rep, so same-seed replays render byte-identically.
func WriteReport(w io.Writer, rep *Report, k int) error {
	if _, err := fmt.Fprintf(w, "critical path: %d steps, digest %016x\n", len(rep.Steps), rep.Digest()); err != nil {
		return err
	}
	fmt.Fprintf(w, "edges: %d matched, %d unmatched subs, %d spans\n",
		rep.MatchedEdges, rep.UnmatchedSubs, rep.Spans)

	fmt.Fprintf(w, "\nattribution (sums to makespan):\n")
	for c := Category(0); c < numCategories; c++ {
		v := rep.Attribution[c]
		if v == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %14d ns  %5.1f%%\n", c, v, 100*float64(v)/float64(rep.Makespan))
	}
	fmt.Fprintf(w, "  %-12s %14d ns  (makespan %d, Δ %d)\n", "total",
		rep.attributionTotal(), rep.Makespan, rep.Makespan-rep.attributionTotal())

	if k > 0 {
		fmt.Fprintf(w, "\ntop %d path segments:\n", k)
		for _, s := range rep.topSegments(k) {
			if s.Edge {
				fmt.Fprintf(w, "  %10d ns  [%d:%d → %d:%d]  %-9s edge %s\n",
					s.dur(), s.FromNode, s.FromTid, s.Node, s.Tid, s.Cat, s.Kind)
			} else {
				fmt.Fprintf(w, "  %10d ns  [%d:%d]          %-9s lane\n",
					s.dur(), s.Node, s.Tid, s.Cat)
			}
		}
	}
	return nil
}
