package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"unsafe"
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
	stats, hits := c.Stats(), c.Hits()
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
		{"ViewHome", func() { ViewHome(c, xs, func([]float64) {}) }},
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
	if c.Stats() != stats || c.Hits() != hits || c.Health == nil {
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

// TestViewHomeInPlace: ViewHome hands out the home frames themselves, in
// element order; a page nobody wrote is seen as zeros — on 8 KiB pages, in
// two 4 KiB segments where a written page comes as one — and the walk does
// not give it a frame, so a second walk sees the same segments; the dump built
// on the walk copies exactly what it shows; a slice off a word, or on pages
// too small for one, is refused.
func TestViewHomeInPlace(t *testing.T) {
	cfg := testConfig(2)
	cfg.PageSize = 8192
	c := MustNewCluster(cfg)
	defer c.Close()
	const perPage = 1024
	xs := c.AllocF64(5*perPage + 3)
	for _, pg := range []int{1, 3} { // pages 0, 2, 4 and the tail stay unwritten
		vals := make([]float64, perPage)
		for i := range vals {
			vals[i] = float64(pg*perPage + i + 1)
		}
		c.InitF64(F64Slice{Base: xs.At(pg * perPage), Len: perPage}, vals)
	}
	frames := map[int]unsafe.Pointer{} // element index → its written page's frame
	for _, pg := range []int{1, 3} {
		frames[pg*perPage] = unsafe.Pointer(&c.Space.HomeBytes(c.Space.PageOf(xs.At(pg * perPage)))[0])
	}
	walk := func() (segs []int, got []float64) {
		ViewHome(c, xs, func(seg []float64) {
			if f, ok := frames[len(got)]; ok && unsafe.Pointer(&seg[0]) != f {
				t.Fatalf("segment at %d is not its page's home frame", len(got))
			}
			segs, got = append(segs, len(seg)), append(got, seg...)
		})
		return segs, got
	}
	segs, got := walk()
	if want := []int{512, 512, perPage, 512, 512, perPage, 512, 512, 3}; !slices.Equal(segs, want) {
		t.Fatalf("segments %v, want %v", segs, want)
	}
	for i, v := range got {
		want := 0.0
		if pg := i / perPage; pg == 1 || pg == 3 {
			want = float64(i + 1)
		}
		if v != want {
			t.Fatalf("element %d seen as %v, want %v", i, v, want)
		}
	}
	if again, _ := walk(); !slices.Equal(again, segs) {
		t.Fatalf("second walk saw segments %v: the first gave an unwritten page a frame", again)
	}
	if !slices.Equal(c.DumpF64(xs), got) {
		t.Fatal("DumpF64 differs from what ViewHome showed")
	}
	mustPanic(t, "ViewHome of an unaligned slice", func() { ViewHome(c, F64Slice{Base: xs.Base + 4, Len: 1}, func([]float64) {}) })
	cfg.PageSize, cfg.MemoryBytes = 4, 4096
	small := MustNewCluster(cfg)
	defer small.Close()
	mustPanic(t, "ViewHome on pages smaller than a word", func() { ViewHome(small, small.AllocF64(2), func([]float64) {}) })
}
