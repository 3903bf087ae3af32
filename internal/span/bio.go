package span

import (
	"fmt"
	"io"
	"sort"

	"argo/internal/probe"
)

// BioEntry is one moment in a page's biography: a classification transition
// or an SI filter decision.
type BioEntry struct {
	T    int64      `json:"t"`
	Node int        `json:"node"`
	Kind probe.Kind `json:"kind"`
	Arg  int64      `json:"arg"`
}

// Biography is the lifetime story of one page: how its Pyxis classification
// evolved and how the SI filter treated it at each fence.
type Biography struct {
	Page        int        `json:"page"`
	Entries     []BioEntry `json:"entries"`
	Transitions int        `json:"transitions"`
	Invalidated int        `json:"invalidated"`
	Kept        int        `json:"kept"`
}

// classArgName names a ClassTransition Arg code.
func classArgName(arg int64) string {
	switch arg {
	case probe.ClassNWtoSW:
		return "NW→SW"
	case probe.ClassSWtoMW:
		return "SW→MW"
	case probe.ClassPtoS:
		return "P→S"
	}
	return fmt.Sprintf("class(%d)", arg)
}

// Biographies joins the trace's per-page classification and SI filter
// events (ClassTransition, Invalidate, Keep) into one story per
// page, sorted by page number.
func Biographies(events []probe.Event) []Biography {
	byPage := map[int]*Biography{}
	for _, e := range events {
		switch e.Kind {
		case probe.ClassTransition, probe.Invalidate, probe.Keep:
		default:
			continue
		}
		b, ok := byPage[e.Page]
		if !ok {
			b = &Biography{Page: e.Page}
			byPage[e.Page] = b
		}
		b.Entries = append(b.Entries, BioEntry{T: e.T, Node: e.Node, Kind: e.Kind, Arg: e.Arg})
		switch e.Kind {
		case probe.ClassTransition:
			b.Transitions++
		case probe.Invalidate:
			b.Invalidated++
		case probe.Keep:
			b.Kept++
		}
	}
	out := make([]Biography, 0, len(byPage))
	for _, b := range byPage {
		sort.SliceStable(b.Entries, func(i, j int) bool {
			a, c := b.Entries[i], b.Entries[j]
			if a.T != c.T {
				return a.T < c.T
			}
			if a.Node != c.Node {
				return a.Node < c.Node
			}
			return a.Kind < c.Kind
		})
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// WriteBiographies prints up to max page biographies (0 = all), busiest
// pages first (most entries, page number breaking ties).
func WriteBiographies(w io.Writer, bios []Biography, max int) error {
	ranked := append([]Biography(nil), bios...)
	sort.SliceStable(ranked, func(i, j int) bool {
		if li, lj := len(ranked[i].Entries), len(ranked[j].Entries); li != lj {
			return li > lj
		}
		return ranked[i].Page < ranked[j].Page
	})
	if max > 0 && len(ranked) > max {
		ranked = ranked[:max]
	}
	for _, b := range ranked {
		if _, err := fmt.Fprintf(w, "page %d: %d transitions, %d invalidated, %d kept\n",
			b.Page, b.Transitions, b.Invalidated, b.Kept); err != nil {
			return err
		}
		for _, e := range b.Entries {
			detail := ""
			if e.Kind == probe.ClassTransition {
				detail = " " + classArgName(e.Arg)
			}
			if _, err := fmt.Fprintf(w, "  %12d n%-3d %s%s\n", e.T, e.Node, e.Kind, detail); err != nil {
				return err
			}
		}
	}
	return nil
}
