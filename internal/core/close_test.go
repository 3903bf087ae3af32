package core

import (
	"errors"
	"strings"
	"testing"
)

// mustPanic runs f and returns what it panicked with, failing the test if it
// returned normally.
func mustPanic(t *testing.T, what string, f func()) (v any) {
	t.Helper()
	defer func() {
		if v = recover(); v == nil {
			t.Errorf("%s after Close did not panic", what)
		}
	}()
	f()
	return nil
}

// TestClosedClusterPanics: after Close every entry point that would touch
// the frames or the allocator panics with the "cluster closed" error, the
// counters stay readable with the values the run left, and a second Close
// is a no-op.
func TestClosedClusterPanics(t *testing.T) {
	c := MustNewCluster(DefaultConfig(2))
	xs := c.AllocF64(1024)
	is := c.AllocI64(8)
	c.InitF64(xs, make([]float64, 1024))
	c.Run(2, func(th *Thread) {
		th.SetF64(xs, th.Rank*512/4, 1)
		th.ReleaseFence()
	})
	stats, hits, faults := c.Stats(), c.Hits(), c.FaultStats()
	c.Close()
	c.Close()
	for _, tc := range []struct {
		what string
		f    func()
	}{
		{"Run", func() { c.Run(1, func(*Thread) {}) }},
		{"RunSeeded", func() { c.RunSeeded(1, 7, func(*Thread) {}) }},
		{"InitF64", func() { c.InitF64(xs, []float64{1}) }},
		{"InitI64", func() { c.InitI64(is, []int64{1}) }},
		{"InitBytes", func() { c.InitBytes(0, []byte{1}) }},
		{"DumpF64", func() { c.DumpF64(xs) }},
		{"DumpI64", func() { c.DumpI64(is) }},
		{"Alloc", func() { c.Alloc(8) }},
		{"AllocPages", func() { c.AllocPages(8) }},
		{"AllocF64", func() { c.AllocF64(1) }},
		{"AllocI64", func() { c.AllocI64(1) }},
	} {
		v := mustPanic(t, tc.what, tc.f)
		if err, ok := v.(error); v != nil && (!ok || !errors.Is(err, errClosed) || !strings.Contains(err.Error(), "cluster closed")) {
			t.Errorf("%s after Close panicked with %v, want the cluster-closed error", tc.what, v)
		}
	}
	if c.Stats() != stats || c.Hits() != hits || c.FaultStats() != faults || c.Health == nil {
		t.Error("Close changed what the run left in the counters")
	}
	if stats.WriteMisses == 0 || hits == 0 {
		t.Fatalf("test vacuous: %d write misses, %d hits", stats.WriteMisses, hits)
	}
}

// TestClosedMidRunPanics: Close while a Run is in progress panics and leaves
// the run and the cluster alone; the Close after the run returns works.
func TestClosedMidRunPanics(t *testing.T) {
	c := MustNewCluster(DefaultConfig(1))
	xs := c.AllocF64(512)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan float64)
	go func() {
		c.Run(1, func(th *Thread) {
			th.SetF64(xs, 0, 3)
			close(started)
			<-release
			th.ReleaseFence()
		})
		done <- c.DumpF64(xs)[0]
	}()
	<-started
	v := mustPanic(t, "Close during Run", c.Close)
	if s, _ := v.(string); !strings.Contains(s, "during Run") {
		t.Errorf("Close during Run panicked with %v", v)
	}
	close(release)
	if got := <-done; got != 3 {
		t.Fatalf("the run's write reads back as %v after the refused Close, want 3", got)
	}
	c.Close()
	mustPanic(t, "DumpF64", func() { c.DumpF64(xs) })
}
