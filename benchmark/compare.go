package main

import (
	"fmt"
	"io"
	"math"
)

// worsening is how far the new median is on the wrong side of the old one,
// as a share of the old median; negative when it improved.
func worsening(old, new float64, better string) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (new - old) / math.Abs(old)
	if better == "higher" {
		return -d
	}
	return d
}

// verdict judges one end-to-end metric on one workload. A quartile spread
// wider than the bound on either side cannot resolve a bound-sized move, so
// the pair is unresolved rather than unchanged.
func verdict(old, new dist, bound float64, better string) string {
	switch d := worsening(old.Median, new.Median, better); {
	case old.N == 0 || new.N == 0:
		return "unresolved"
	case math.Max(old.spread(), new.spread()) > bound:
		return "unresolved"
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "same"
}

// compareLedgers prints, per workload and end-to-end metric, both medians
// with quartiles, the move against the bound and a verdict, with the
// per-layer moves beneath. It reports whether any metric got worse or any
// workload failed more often.
func compareLedgers(w io.Writer, old, new ledger) (regressed bool) {
	fmt.Fprintf(w, "compare: old seed %d on %s, new seed %d on %s\n", old.Seed, old.Env.Go, new.Seed, new.Env.Go)
	for _, nw := range new.Workloads {
		ow, ok := old.workload(nw.Name)
		if !ok {
			fmt.Fprintf(w, "\n%s: not in the old ledger\n", nw.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s (fingerprint old: %s, new: %s)\n", nw.Name, ow.Fingerprint, nw.Fingerprint)
		fmt.Fprintf(w, "  %-24s %-34s %-34s %9s %7s  %s\n", "metric", "old median [q1, q3] n", "new median [q1, q3] n", "move", "bound", "verdict")
		cell := func(d dist) string { return fmt.Sprintf("%.5g [%.5g, %.5g] %d", d.Median, d.Q1, d.Q3, d.N) }
		for _, m := range endToEnd {
			o, n := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			b := m.boundFor(nw.Name)
			v := verdict(o, n, b, m.Better)
			regressed = regressed || v == "worse"
			fmt.Fprintf(w, "  %-24s %-34s %-34s %+8.2f%% %6.0f%%  %s\n", m.Name, cell(o), cell(n),
				100*worsening(o.Median, n.Median, m.Better), 100*b, v)
		}
		of, nf := ow.EndToEnd[failShare].Median, nw.EndToEnd[failShare].Median
		fv := "same"
		if nf > of {
			fv, regressed = "worse", true
		}
		fmt.Fprintf(w, "  %-24s %-34.5g %-34.5g %18s %s\n", failShare, of, nf, "", fv)
		comparePerLayer(w, ow.PerLayer, nw.PerLayer)
	}
	if len(old.Layers) > 0 && len(new.Layers) > 0 {
		fmt.Fprintf(w, "\nper-layer unit costs\n")
		comparePerLayer(w, old.Layers, new.Layers)
	}
	return regressed
}

func comparePerLayer(w io.Writer, old, new map[string]value) {
	for _, m := range perLayer {
		o, ok1 := old[m.Name]
		n, ok2 := new[m.Name]
		if !ok1 || !ok2 || o.NA != "" || n.NA != "" {
			continue
		}
		move := "      n/a"
		if o.Value != 0 {
			move = fmt.Sprintf("%+8.2f%%", 100*(n.Value-o.Value)/math.Abs(o.Value))
		}
		fmt.Fprintf(w, "    %-40s %14.6g -> %-14.6g %-6s %s\n", m.Name, o.Value, n.Value, m.Unit, move)
	}
}

// agree is the self-check's assertion: two sets of one binary must put every
// end-to-end median within its bound of the other, in either direction, fail
// nothing and report identical fingerprints.
func agree(w io.Writer, a, b ledger) bool {
	ok := true
	for _, bw := range b.Workloads {
		aw, _ := a.workload(bw.Name)
		for _, m := range endToEnd {
			d := math.Abs(worsening(aw.EndToEnd[m.Name].Median, bw.EndToEnd[m.Name].Median, m.Better))
			if bound := m.boundFor(bw.Name); d > bound {
				fmt.Fprintf(w, "selfcheck: %s %s differs by %.2f%%, bound %.0f%%\n", bw.Name, m.Name, 100*d, 100*bound)
				ok = false
			}
		}
		if aw.Failed+bw.Failed > 0 {
			fmt.Fprintf(w, "selfcheck: %s failed %d and %d runs\n", bw.Name, aw.Failed, bw.Failed)
			ok = false
		}
		if aw.Fingerprint != bw.Fingerprint || bw.Fingerprint != "same" {
			fmt.Fprintf(w, "selfcheck: %s fingerprints: %s / %s\n", bw.Name, aw.Fingerprint, bw.Fingerprint)
			ok = false
		}
	}
	return ok
}
