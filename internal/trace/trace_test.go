package trace

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"argo/internal/probe"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Observe(probe.Event{Kind: probe.ReadMiss})
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer misbehaved")
	}
	tr.Reset()
}

func TestRecordAndMergeSorted(t *testing.T) {
	tr := New(0)
	tr.Observe(probe.Event{Start: 30, T: 30, Node: 1, Kind: probe.Writeback, Page: 7, Arg: 100})
	tr.Observe(probe.Event{Start: 10, T: 10, Node: 0, Kind: probe.ReadMiss, Page: 3})
	tr.Observe(probe.Event{Start: 20, T: 20, Node: 1, Kind: probe.SIFence})
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].T != 10 || ev[1].T != 20 || ev[2].T != 30 {
		t.Fatalf("not sorted: %v", ev)
	}
}

func TestLimitDrops(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Observe(probe.Event{Start: int64(i), T: int64(i), Node: 0, Kind: probe.ReadMiss})
	}
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("kept %d events, want 2", got)
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Dropped() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(0)
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Observe(probe.Event{Start: int64(i), T: int64(i), Node: n, Kind: probe.WriteMiss, Page: i})
			}
		}(n)
	}
	wg.Wait()
	if got := len(tr.Events()); got != 800 {
		t.Fatalf("got %d events, want 800", got)
	}
}

func TestSummary(t *testing.T) {
	tr := New(0)
	tr.Observe(probe.Event{Kind: probe.ReadMiss})
	tr.Observe(probe.Event{Kind: probe.ReadMiss})
	tr.Observe(probe.Event{Kind: probe.SDFence})
	s := tr.Summary()
	if s[probe.ReadMiss] != 2 || s[probe.SDFence] != 1 {
		t.Fatalf("summary = %v", s)
	}
}

func TestWriters(t *testing.T) {
	tr := New(0)
	tr.Observe(probe.Event{Start: -115, T: 5, Node: 2, Kind: probe.Writeback, Page: 9, Arg: 64})
	tr.Observe(probe.Event{Start: 8, T: 8, Node: 1, Kind: probe.ReadMiss, Page: 3})
	var txt, csv strings.Builder
	if err := tr.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "writeback") || !strings.Contains(txt.String(), "page=9") {
		t.Fatalf("text output: %q", txt.String())
	}
	// Durations ride along in the text stream, but only for timed events.
	if !strings.Contains(txt.String(), "dur=120") {
		t.Fatalf("text output lost the duration: %q", txt.String())
	}
	if strings.Count(txt.String(), "dur=") != 1 {
		t.Fatalf("zero-duration event grew a dur field: %q", txt.String())
	}
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "t_ns,node,kind,page,arg,dur_ns\n") ||
		!strings.Contains(csv.String(), "5,2,writeback,9,64,120") ||
		!strings.Contains(csv.String(), "8,1,read-miss,3,0,0") {
		t.Fatalf("csv output: %q", csv.String())
	}
}

func TestEventStringDur(t *testing.T) {
	e := probe.Event{Start: 7, T: 49, Node: 0, Kind: probe.SIFence}
	if s := format(e); !strings.Contains(s, "dur=42") {
		t.Fatalf("Format lost the duration: %q", s)
	}
	e.Start = e.T
	if s := format(e); strings.Contains(s, "dur=") {
		t.Fatalf("zero duration should be omitted: %q", s)
	}
}

// The kind column of the text, CSV and Perfetto exports is an output format:
// these are the names the trace has always printed.
func TestKindNames(t *testing.T) {
	want := map[probe.Kind]string{
		probe.ReadMiss: "read-miss", probe.WriteMiss: "write-miss", probe.LineFetch: "line-fetch",
		probe.Writeback: "writeback", probe.Checkpoint: "checkpoint", probe.SIFence: "si-fence",
		probe.SDFence: "sd-fence", probe.Invalidate: "invalidate", probe.Keep: "keep",
		probe.Notify: "notify", probe.ClassTransition: "class-transition", probe.WBRetry: "wb-retry",
		probe.WBBurst: "wb-burst", probe.Crash: "crash", probe.Excise: "excise",
	}
	for k := probe.Kind(0); k < probe.NumKinds; k++ {
		if name, ok := want[k]; ok != traced[k] || (ok && k.String() != name) {
			t.Errorf("kind %d (%s): traced %v, want %v as %q", k, k, traced[k], ok, name)
		}
	}
}

// What the trace shows of the kinds it reshapes: a burst packs pages and
// homes into one number, a crash prints its episode and safe point, and a
// lock's excision of a dead holder reads as an excise on the grantee's lane.
func TestProjection(t *testing.T) {
	tr := New(0)
	tr.Observe(probe.Event{Start: 1, T: 1, Kind: probe.WBBurst, Arg: 5, Aux: 2})
	tr.Observe(probe.Event{Start: 2, T: 2, Node: 3, Kind: probe.Crash, Key: 7, Arg: 3, Aux: probe.CrashAtLock})
	tr.Observe(probe.Event{Start: 3, T: 3, Node: 1, Kind: probe.LockExcision, Key: 9, Arg: 3})
	tr.Observe(probe.Event{Start: 4, T: 4, Kind: probe.OpRead}) // not the trace's
	var csv strings.Builder
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "t_ns,node,kind,page,arg,dur_ns\n1,0,wb-burst,-1,1282,0\n2,3,crash,-1,29,0\n3,1,excise,-1,3,0\n"
	if csv.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", csv.String(), want)
	}
	if s := format(tr.shown()[1]); !strings.Contains(s, "episode=7") || !strings.Contains(s, "point=lock") {
		t.Fatalf("crash line: %q", s)
	}
}

// A saved log loads back into a tracer holding the same events and drops, so
// every view of it renders as it did online.
func TestLogRoundTrip(t *testing.T) {
	tr := New(2)
	for i := 0; i < 3; i++ {
		tr.Observe(probe.Event{Start: int64(i), T: int64(i + 5), Node: 1, Tid: probe.TidOf(1, 2), Kind: probe.OpRead, Arg: 3})
	}
	tr.Observe(probe.Event{Start: 2, T: 2, Kind: probe.Crash, Key: 7, Arg: 3, Aux: probe.CrashAtLock})
	tr.Observe(probe.Event{Start: 9, T: 9, Kind: probe.RunEnd})
	var buf bytes.Buffer
	if err := tr.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Kind":"run-end"`) || !strings.Contains(buf.String(), `"dropped":1`) {
		t.Fatalf("log file: %s", buf.String())
	}
	back, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Events(), tr.Events()) || back.Dropped() != 1 {
		t.Fatalf("read back %+v (dropped %d), wrote %+v", back.Events(), back.Dropped(), tr.Events())
	}
	var again bytes.Buffer
	if err := back.WriteLog(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatalf("a log read back writes %s, err %v", again.String(), err)
	}
	back.Reset()
	if back.Len() != 0 || back.Dropped() != 0 {
		t.Fatal("reset kept the drops of the log it was read from")
	}

	bad := strings.Replace(buf.String(), `"Kind":"run-end"`, `"Kind":"run-stop"`, 1)
	if _, err := ReadLog(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), `"run-stop"`) {
		t.Fatalf("a log naming an unknown kind: err %v", err)
	}
}
