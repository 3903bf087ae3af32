// Package trace keeps the log of a run: every event of package probe the
// clusters it observes emit, with its virtual timestamp, for debugging protocol
// behaviour and for post-mortem analysis of benchmark runs (what the paper
// does with aggregate counters, but per event). The text, CSV and Perfetto
// timelines here show the page-level part of it — misses, fetches,
// writebacks, fences, classification transitions, crashes and excisions;
// Pictor (package span) reads the same log for its critical path.
//
// Tracing is off unless a Tracer is among a cluster's observers. Events are
// buffered per node to avoid cross-node contention and merged on demand, in
// an order that is a function of the run alone.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"argo/internal/probe"
)

// traced marks the kinds the timelines show; the rest of the log is for the
// other readers.
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

// format renders one shown event as a line of the text trace.
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

// Tracer records every event of the clusters it observes. A nil *Tracer
// holds nothing and ignores events.
type Tracer struct {
	buf  *probe.Lanes[probe.Event]
	lost int // drops reported by the log it was read from
}

// New creates a tracer that keeps at most limit events per node
// (0 means 1<<21).
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = 1 << 21
	}
	return &Tracer{buf: probe.NewLanes[probe.Event](limit)}
}

func (t *Tracer) lanes() *probe.Lanes[probe.Event] {
	if t == nil {
		return nil
	}
	return t.buf
}

// Observe keeps e as emitted (probe.Sink).
func (t *Tracer) Observe(e probe.Event) { t.lanes().Append(e.Node, e) }

// Events returns all recorded events merged into the canonical order of
// probe.Sort: by virtual time, ties by node, thread, kind and content.
func (t *Tracer) Events() []probe.Event { return t.lanes().Sorted() }

// Dropped reports how many events were discarded due to the per-node limit.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	return t.buf.Dropped() + t.lost
}

// Reset discards all recorded events.
func (t *Tracer) Reset() {
	if t != nil {
		t.buf.Reset()
		t.lost = 0
	}
}

// Len reports the total number of buffered events (cheaper than Events).
func (t *Tracer) Len() int { return t.lanes().Len() }

// show projects e into the timelines' shape, reporting whether they show it:
// Page is -1 for a fact about no page and Arg the one number a timeline
// shows — bytes written back, pages invalidated, target node…; a burst packs
// pages<<8|homes, a crash episode<<2|safe point. A lock's excision of a dead
// holder is shown under the same name as the membership's.
func show(e probe.Event) (probe.Event, bool) {
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
	return e, traced[e.Kind]
}

// shown returns the events the timelines show, projected, in canonical order.
func (t *Tracer) shown() []probe.Event {
	var out []probe.Event
	t.lanes().Each(func(e probe.Event) {
		if e, ok := show(e); ok {
			out = append(out, e)
		}
	})
	probe.Sort(out)
	return out
}

// Summary counts the shown events by kind, each lane in place — no copy, no
// merge-sort of the full log.
func (t *Tracer) Summary() map[probe.Kind]int {
	out := map[probe.Kind]int{}
	t.lanes().Each(func(e probe.Event) {
		if e, ok := show(e); ok {
			out[e.Kind]++
		}
	})
	return out
}

// WriteText dumps the merged trace, one event per line.
func (t *Tracer) WriteText(w io.Writer) error {
	for _, e := range t.shown() {
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
	for _, e := range t.shown() {
		b.Reset()
		fmt.Fprintf(&b, "%d,%d,%s,%d,%d,%d\n", e.T, e.Node, e.Kind, e.Page, e.Arg, e.Dur())
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// logFile is the saved form of a log: every event in canonical order, each
// with its kind by name, and the drop count.
type logFile struct {
	Dropped int        `json:"dropped"`
	Events  []logEvent `json:"events"`
}

// logEvent is an event with its kind by name; the name hides Event.Kind.
type logEvent struct {
	Kind string
	probe.Event
}

// WriteLog saves the log as JSON, for ReadLog to load back.
func (t *Tracer) WriteLog(w io.Writer) error {
	events := t.Events()
	lf := logFile{Dropped: t.Dropped(), Events: make([]logEvent, len(events))}
	for i, e := range events {
		lf.Events[i] = logEvent{e.Kind.String(), e}
	}
	return json.NewEncoder(w).Encode(lf)
}

// ReadLog loads a log written by WriteLog into a tracer that reports the same
// events and drops. A kind it does not know is an error that names it.
func ReadLog(r io.Reader) (*Tracer, error) {
	var lf logFile
	if err := json.NewDecoder(r).Decode(&lf); err != nil {
		return nil, err
	}
	kinds := map[string]probe.Kind{}
	for k := probe.Kind(0); k < probe.NumKinds; k++ {
		kinds[k.String()] = k
	}
	t := New(len(lf.Events))
	for _, le := range lf.Events {
		k, ok := kinds[le.Kind]
		if !ok {
			return nil, fmt.Errorf("unknown event kind %q", le.Kind)
		}
		le.Event.Kind = k
		t.Observe(le.Event)
	}
	t.lost = lf.Dropped
	return t, nil
}
