// Package trace is the protocol-event sink of package probe: it keeps the
// page-level facts — misses, fetches, writebacks, fences, classification
// transitions, crashes and excisions — with their virtual timestamps, for
// debugging protocol behaviour and for post-mortem analysis of benchmark runs
// (what the paper does with aggregate counters, but per event).
//
// Tracing is off unless a Tracer is among a cluster's observers. Events are
// buffered per node to avoid cross-node contention and merged on demand, in
// an order that is a function of the run alone.
package trace

import (
	"fmt"
	"io"
	"strings"

	"argo/internal/probe"
)

// traced marks the kinds the trace keeps; the rest of the stream belongs to
// the other sinks.
var traced = [probe.NumKinds]bool{
	probe.ReadMiss: true, probe.WriteMiss: true, probe.LineFetch: true, probe.Writeback: true,
	probe.Checkpoint: true, probe.SIFence: true, probe.SDFence: true, probe.Invalidate: true,
	probe.Keep: true, probe.Notify: true, probe.ClassTransition: true, probe.WBRetry: true,
	probe.WBBurst: true, probe.Crash: true, probe.Excise: true,
}

var crashKindNames = [...]string{"barrier", "lock", "flag"}

// CrashKindName renders a probe.CrashAt* safe point ("barrier", "lock", "flag").
func CrashKindName(kind int64) string {
	if kind >= 0 && kind < int64(len(crashKindNames)) {
		return crashKindNames[kind]
	}
	return fmt.Sprintf("kind(%d)", kind)
}

// format renders one event of Events as a line of the text trace.
func format(e probe.Event) string {
	var dur string
	if e.Dur() > 0 {
		dur = fmt.Sprintf(" dur=%d", e.Dur())
	}
	if e.Kind == probe.Crash {
		return fmt.Sprintf("%12d n%-3d %-16s episode=%-4d point=%s%s",
			e.T, e.Node, e.Kind, e.Key, CrashKindName(e.Aux), dur)
	}
	if e.Page >= 0 {
		return fmt.Sprintf("%12d n%-3d %-16s page=%-6d arg=%d%s", e.T, e.Node, e.Kind, e.Page, e.Arg, dur)
	}
	return fmt.Sprintf("%12d n%-3d %-16s arg=%d%s", e.T, e.Node, e.Kind, e.Arg, dur)
}

// Tracer collects events from all nodes of the clusters it observes. A nil
// *Tracer holds nothing and ignores events.
type Tracer probe.Lanes[probe.Event]

// New creates a tracer that keeps at most limit events per node
// (0 means 1<<20).
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = 1 << 20
	}
	return (*Tracer)(probe.NewLanes[probe.Event](limit))
}

func (t *Tracer) lanes() *probe.Lanes[probe.Event] { return (*probe.Lanes[probe.Event])(t) }

// Observe keeps e if it is one of the trace's kinds (probe.Sink), in the
// trace's shape: Page is -1 for a fact about no page and Arg the one number
// the trace shows — bytes written back, pages invalidated, target node…; a
// burst packs pages<<8|homes, a crash episode<<2|safe point. A lock's excision
// of a dead holder is traced under the same name as the membership's.
func (t *Tracer) Observe(e probe.Event) {
	switch e.Kind {
	case probe.LockExcision:
		e.Kind = probe.Excise
	case probe.WBBurst:
		e.Arg = e.Arg<<8 | e.Aux
	case probe.Crash:
		e.Arg = int64(e.Key)<<2 | e.Aux
	}
	if !e.Kind.Paged() {
		e.Page = -1
	}
	if traced[e.Kind] {
		t.lanes().Append(e.Node, e)
	}
}

// Events returns all recorded events merged into the canonical order of
// probe.Sort: by virtual time, ties by node, thread, kind and content.
func (t *Tracer) Events() []probe.Event { return t.lanes().Sorted() }

// Dropped reports how many events were discarded due to the per-node limit.
func (t *Tracer) Dropped() int { return t.lanes().Dropped() }

// Reset discards all recorded events.
func (t *Tracer) Reset() { t.lanes().Reset() }

// Len reports the total number of buffered events (cheaper than Events).
func (t *Tracer) Len() int { return t.lanes().Len() }

// Summary aggregates event counts by kind, counting each lane in place — no
// copy, no merge-sort of the full trace.
func (t *Tracer) Summary() map[probe.Kind]int {
	out := map[probe.Kind]int{}
	t.lanes().Each(func(e probe.Event) { out[e.Kind]++ })
	return out
}

// WriteText dumps the merged trace, one event per line.
func (t *Tracer) WriteText(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, format(e)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps the merged trace as CSV with a header row.
func (t *Tracer) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "t_ns,node,kind,page,arg,dur_ns\n"); err != nil {
		return err
	}
	var b strings.Builder
	for _, e := range t.Events() {
		b.Reset()
		fmt.Fprintf(&b, "%d,%d,%s,%d,%d,%d\n", e.T, e.Node, e.Kind, e.Page, e.Arg, e.Dur())
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
