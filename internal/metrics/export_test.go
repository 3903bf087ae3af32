package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"argo/internal/probe"
)

func TestJSONDumpRoundTrips(t *testing.T) {
	s := NewSuite()
	for _, e := range []probe.Event{
		{Kind: probe.OpRead, Start: 0, T: 100},
		{Kind: probe.ReadMiss, Page: 42}, {Kind: probe.ReadMiss, Page: 42}, {Kind: probe.Writeback, Page: 7},
		{Kind: probe.LockNew, Key: 1, Arg: probe.LockMutex},
		{Kind: probe.LockAcquire, Key: 1, Start: 0, T: 10, Arg: probe.LockMutex},
		{Kind: probe.LockRelease, Key: 1, Start: 10, T: 14},
	} {
		s.Observe(e)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d DumpJSON
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	// counter reads the series of name whose one label is label.
	counter := func(name, label string) int64 {
		for _, c := range d.Counters {
			for _, v := range c.Labels {
				if c.Name == name && v == label {
					return c.Value
				}
			}
		}
		t.Fatalf("no counter %s{%s} in %+v", name, label, d.Counters)
		return 0
	}
	if counter("argo_fabric_ops_total", "remote_read") != 1 || counter("argo_cache_events_total", "miss") != 2 {
		t.Fatalf("counters: %+v", d.Counters)
	}
	var reads int64
	for _, h := range d.Histograms {
		if h.Name == "argo_fabric_op_ns" && h.Labels["op"] == "remote_read" {
			if h.Count != 1 || h.P50 < 100 {
				t.Fatalf("remote_read latency: %+v", h)
			}
			reads++
		}
	}
	if reads != 1 {
		t.Fatalf("histograms: %+v", d.Histograms)
	}
	if len(d.HotPages) != 2 || d.HotPages[0].Page != 42 || d.HotPages[0].ReadMisses != 2 {
		t.Fatalf("hot pages: %+v", d.HotPages)
	}
	if len(d.HotLocks) != 1 || d.HotLocks[0].Name != "dsm-mutex#0" || d.HotLocks[0].WaitNs != 10 || d.HotLocks[0].HeldNs != 4 {
		t.Fatalf("hot locks: %+v", d.HotLocks)
	}
}

// TestFamiliesHaveHelp: every family of the table is named once and says
// what it counts, and what it says reaches every series of it in the dump; a
// suite that observed nothing dumps nothing.
func TestFamiliesHaveHelp(t *testing.T) {
	help := map[string]string{}
	for _, f := range families {
		if f.help == "" {
			t.Errorf("%s has no help string", f.name)
		}
		if _, dup := help[f.name]; dup {
			t.Errorf("%s is defined twice", f.name)
		}
		help[f.name] = f.help
	}
	s := NewSuite()
	if d := s.Dump(); d.Counters != nil || d.Gauges != nil || d.Histograms != nil {
		t.Fatalf("a suite that observed nothing dumps %+v", d)
	}
	s.Observe(probe.Event{Kind: probe.RunEnd})
	d := s.Dump()
	seen := map[string]bool{}
	check := func(name, got string) {
		seen[name] = true
		if got != help[name] {
			t.Errorf("%s: dump help %q, table %q", name, got, help[name])
		}
	}
	for _, c := range append(d.Counters, d.Gauges...) {
		check(c.Name, c.Help)
	}
	for _, h := range d.Histograms {
		check(h.Name, h.Help)
	}
	if len(seen) != len(families) {
		t.Errorf("the dump has %d of the table's %d families", len(seen), len(families))
	}
}

func TestTopKOrderAndTruncation(t *testing.T) {
	pp := newPageProfile()
	for p := 0; p < 10; p++ {
		for i := 0; i <= p; i++ {
			pp.bump(p, pageNotes[probe.ReadMiss])
		}
	}
	top := pp.TopK(3, TotalPageActivity)
	if len(top) != 3 || top[0].Page != 9 || top[1].Page != 8 || top[2].Page != 7 {
		t.Fatalf("top pages: %+v", top)
	}
	if len(pp.m) != 10 {
		t.Fatalf("len %d", len(pp.m))
	}
}
