package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"argo/internal/probe"
)

func TestTidRoundTrip(t *testing.T) {
	for _, c := range []struct{ socket, core int }{{0, 0}, {1, 2}, {3, 0}, {7, 65535}} {
		s, co := probe.DecodeTid(probe.TidOf(c.socket, c.core))
		if s != c.socket || co != c.core {
			t.Fatalf("TidOf(%d,%d) round-trips to (%d,%d)", c.socket, c.core, s, co)
		}
	}
}

func TestWritePerfetto(t *testing.T) {
	tr := New(0)
	tr.Observe(probe.Event{Start: 5000, T: 5000, Node: 0, Tid: probe.TidOf(1, 2), Kind: probe.ReadMiss, Page: 3, Arg: 1})
	tr.Observe(probe.Event{Start: 7000, T: 9000, Node: 1, Tid: probe.TidOf(0, 0), Kind: probe.SIFence, Arg: 4})

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var procs, threads, spans, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			switch e["name"] {
			case "process_name":
				procs++
			case "thread_name":
				threads++
				if e["pid"] == 0.0 && e["tid"] == float64(probe.TidOf(1, 2)) {
					args := e["args"].(map[string]any)
					if args["name"] != "socket 1 core 2" {
						t.Errorf("thread_name = %v", args["name"])
					}
				}
			}
		case "X":
			spans++
			// Event.T is the span end: ts must be (9000-2000) ns = 7 µs.
			if e["ts"] != 7.0 || e["dur"] != 2.0 {
				t.Errorf("span ts/dur = %v/%v, want 7/2", e["ts"], e["dur"])
			}
			if e["name"] != "si-fence" || e["pid"] != 1.0 {
				t.Errorf("span name/pid = %v/%v", e["name"], e["pid"])
			}
		case "i":
			instants++
			if e["s"] != "t" {
				t.Errorf("instant scope = %v", e["s"])
			}
			if e["ts"] != 5.0 {
				t.Errorf("instant ts = %v", e["ts"])
			}
			if args := e["args"].(map[string]any); args["page"] != 3.0 {
				t.Errorf("instant page = %v", args["page"])
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if procs != 2 || threads != 2 || spans != 1 || instants != 1 {
		t.Fatalf("procs=%d threads=%d spans=%d instants=%d", procs, threads, spans, instants)
	}
}

// The log keeps every event; Summary counts the ones the timelines show, in
// their shape.
func TestSummaryMatchesEvents(t *testing.T) {
	tr := New(0)
	for i := 0; i < 50; i++ {
		tr.Observe(probe.Event{Start: int64(i), T: int64(i), Node: i % 3, Kind: probe.Kind(i % int(probe.NumKinds))})
	}
	want := map[probe.Kind]int{}
	for _, e := range tr.shown() {
		want[e.Kind]++
	}
	got := tr.Summary()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("summary kinds %d, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("kind %v: %d, want %d", k, got[k], n)
		}
	}
	if tr.Len() != 50 || len(tr.Events()) != 50 || len(tr.shown()) >= 50 {
		t.Errorf("Len = %d, %d shown: want all 50 events logged and the traced kinds' share shown", tr.Len(), len(tr.shown()))
	}
}
