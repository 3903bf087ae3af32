package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestJSONDumpRoundTrips(t *testing.T) {
	s := NewSuite()
	s.Reg.Counter("c_total", "c", L("k", "v")).add(5)
	s.Reg.histogram("h_ns", "h").record(0, 100)
	s.Pages.readMiss(42)
	s.Pages.readMiss(42)
	s.Pages.writeback(7)
	ls := s.Locks.register("test")
	ls.acquired(10)
	ls.released(4)

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d DumpJSON
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(d.Counters) != 1 || d.Counters[0].Value != 5 || d.Counters[0].Labels["k"] != "v" {
		t.Fatalf("counters: %+v", d.Counters)
	}
	if len(d.Histograms) != 1 || d.Histograms[0].Count != 1 || d.Histograms[0].P50 < 100 {
		t.Fatalf("histograms: %+v", d.Histograms)
	}
	if len(d.HotPages) != 2 || d.HotPages[0].Page != 42 || d.HotPages[0].ReadMisses != 2 {
		t.Fatalf("hot pages: %+v", d.HotPages)
	}
	if len(d.HotLocks) != 1 || d.HotLocks[0].Name != "test#0" || d.HotLocks[0].WaitNs != 10 {
		t.Fatalf("hot locks: %+v", d.HotLocks)
	}
}

func TestRegistryIdempotentAndKindConflictPanics(t *testing.T) {
	reg := newRegistry()
	a := reg.Counter("x_total", "x", L("a", "1"), L("b", "2"))
	b := reg.Counter("x_total", "x", L("b", "2"), L("a", "1")) // label order irrelevant
	if a != b {
		t.Fatal("same (name, labels) returned different counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	reg.gauge("x_total", "x")
}

func TestTopKOrderAndTruncation(t *testing.T) {
	pp := newPageProfile()
	for p := 0; p < 10; p++ {
		for i := 0; i <= p; i++ {
			pp.readMiss(p)
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
