package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call the benchmark makes into a
// layer. Spans live in memory until the run ends.
type span struct {
	ID     int
	Parent int // 0 for the root
	Name   string
	Layer  string
	Start  int64 // host ns since the tracer started
	End    int64
	Calls  int64 // calls into the layer the span covers
	VirtNs int64 // virtual-clock advance over the span, when the calls have one
}

// tracer records spans as a tree: begin nests under the innermost open span.
// A nil tracer records nothing, which is how the timed pass runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int, calls, virtNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.End, s.Calls, s.VirtNs = int64(time.Since(t.t0)), calls, virtNs
}

// in runs f inside a span.
func (t *tracer) in(name, layer string, f func()) {
	id := t.begin(name, layer)
	f()
	t.end(id, 1, 0)
}

// selfTimes returns, per layer, the summed span durations minus the part
// their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make(map[int]int64)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" complete event), the format the
// repository's other tools emit and Perfetto loads.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) write(w io.Writer) error {
	evs := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "calls": s.Calls, "virt_ns": s.VirtNs},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "traced self time by layer (%d spans):\n", len(t.spans))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.3f ms\n", l, float64(self[l])/1e6)
	}
}
