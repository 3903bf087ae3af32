// Chrome trace-event (Perfetto) export: the merged trace rendered as a JSON
// timeline that ui.perfetto.dev (or chrome://tracing) opens directly. Nodes
// map to processes, simulated hardware threads (socket/core tracks) map to
// threads; fences render as duration slices, everything else as instants.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"argo/internal/probe"
)

// perfettoEvent is one entry of the traceEvents array. Timestamps are in
// microseconds (the format's fixed unit); virtual nanoseconds keep three
// decimals.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`    // instant scope
	ID   string         `json:"id,omitempty"`   // flow binding (ph s/f)
	BP   string         `json:"bp,omitempty"`   // flow binding point
	Args map[string]any `json:"args,omitempty"` // page, arg, thread names
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// Flow is one causal edge rendered as a Perfetto flow arrow: a ph:"s"
// (start) event at the source endpoint linked by ID to a ph:"f" (finish)
// event at the sink. The span package derives these from matched pub/sub
// pairs; callers may also build them by hand.
type Flow struct {
	Name     string // edge kind, e.g. "handoff", "barrier"
	ID       uint64 // unique per flow within the export
	FromNode int
	FromTid  int
	FromT    int64 // virtual ns at the source
	ToNode   int
	ToTid    int
	ToT      int64 // virtual ns at the sink
}

// WritePerfetto dumps the merged trace as Chrome trace-event JSON.
func (t *Tracer) WritePerfetto(w io.Writer) error {
	return t.WritePerfettoFlows(w, nil)
}

// WritePerfettoFlows dumps the merged trace as Chrome trace-event JSON with
// the given causal edges rendered as flow arrows between thread tracks.
func (t *Tracer) WritePerfettoFlows(w io.Writer, flows []Flow) error {
	events := t.shown()

	// Metadata: name every (node) process and every (node, tid) thread
	// track that appears in the trace.
	type track struct{ pid, tid int }
	nodes := map[int]bool{}
	tracks := map[track]bool{}
	for _, e := range events {
		nodes[e.Node] = true
		tracks[track{e.Node, e.Tid}] = true
	}
	// Flow endpoints need named tracks too, or the arrows land on
	// anonymous rows.
	for _, f := range flows {
		nodes[f.FromNode] = true
		nodes[f.ToNode] = true
		tracks[track{f.FromNode, f.FromTid}] = true
		tracks[track{f.ToNode, f.ToTid}] = true
	}
	var out []perfettoEvent
	nodeIDs := make([]int, 0, len(nodes))
	for n := range nodes {
		nodeIDs = append(nodeIDs, n)
	}
	sort.Ints(nodeIDs)
	for _, n := range nodeIDs {
		out = append(out, perfettoEvent{
			Name: "process_name", Ph: "M", Pid: n, Tid: 0,
			Args: map[string]any{"name": fmt.Sprintf("node %d", n)},
		})
	}
	trackIDs := make([]track, 0, len(tracks))
	for tr := range tracks {
		trackIDs = append(trackIDs, tr)
	}
	sort.Slice(trackIDs, func(i, j int) bool {
		if trackIDs[i].pid != trackIDs[j].pid {
			return trackIDs[i].pid < trackIDs[j].pid
		}
		return trackIDs[i].tid < trackIDs[j].tid
	})
	for _, tr := range trackIDs {
		s, c := probe.DecodeTid(tr.tid)
		out = append(out, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: tr.pid, Tid: tr.tid,
			Args: map[string]any{"name": fmt.Sprintf("socket %d core %d", s, c)},
		})
	}

	for _, e := range events {
		pe := perfettoEvent{
			Name: e.Kind.String(),
			Pid:  e.Node,
			Tid:  e.Tid,
			Args: map[string]any{"arg": e.Arg},
		}
		if e.Page >= 0 {
			pe.Args["page"] = e.Page
		}
		if e.Dur() > 0 {
			pe.Ph = "X"
			pe.Ts = usOf(e.Start)
			pe.Dur = usOf(e.Dur())
		} else {
			pe.Ph = "i"
			pe.Ts = usOf(e.T)
			pe.S = "t"
		}
		out = append(out, pe)
	}

	for _, f := range flows {
		id := fmt.Sprintf("0x%x", f.ID)
		out = append(out,
			perfettoEvent{
				Name: f.Name, Ph: "s", Ts: usOf(f.FromT),
				Pid: f.FromNode, Tid: f.FromTid, ID: id,
			},
			perfettoEvent{
				Name: f.Name, Ph: "f", Ts: usOf(f.ToT),
				Pid: f.ToNode, Tid: f.ToTid, ID: id, BP: "e",
			})
	}

	doc := struct {
		TraceEvents     []perfettoEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
