package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"argo/internal/metrics"
)

// TestConfigMetricsWiring runs a small cross-node workload with a metrics
// suite among the Config's observers and checks each instrumented layer produced data: fabric
// op histograms/counters, fence histograms, cache hit/miss counters, and
// page attribution. (Lock and barrier probes are exercised by their own
// packages' tests; they build on the same suite.)
func TestConfigMetricsWiring(t *testing.T) {
	ms := metrics.NewSuite()
	cfg := testConfig(2)
	cfg.Observers = append(cfg.Observers, ms)
	c := MustNewCluster(cfg)

	xs := c.AllocF64(4096) // spans pages homed on both nodes
	c.Run(1, func(th *Thread) {
		lo := th.Rank * xs.Len / th.NT
		hi := (th.Rank + 1) * xs.Len / th.NT
		for i := lo; i < hi; i++ {
			th.SetF64(xs, i, float64(i))
		}
		th.Coh.SIFence(th.P)
		for i := 0; i < xs.Len; i++ {
			th.GetF64(xs, i)
		}
		th.Coh.SDFence(th.P)
	})

	d := ms.Reg.Dump()
	hists := map[string]int64{}
	for _, h := range d.Histograms {
		key := h.Name
		for _, v := range h.Labels {
			key += "/" + v
		}
		hists[key] += h.Count
	}
	counters := map[string]int64{}
	for _, cs := range d.Counters {
		counters[cs.Name] += cs.Value
	}
	for _, want := range []string{"argo_fabric_op_ns/line_fetch", "argo_fence_ns/si", "argo_fence_ns/sd"} {
		if hists[want] == 0 {
			t.Errorf("histogram %s recorded nothing (have %v)", want, hists)
		}
	}
	for _, want := range []string{"argo_fabric_ops_total", "argo_cache_events_total", "argo_fence_pages_total"} {
		if counters[want] == 0 {
			t.Errorf("counter %s recorded nothing (have %v)", want, counters)
		}
	}
	if len(ms.Pages.TopK(1, metrics.TotalPageActivity)) == 0 {
		t.Error("page profile attributed nothing")
	}

	var buf bytes.Buffer
	if err := ms.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("metrics dump not valid JSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"name": "argo_fabric_op_ns"`) {
		t.Error("metrics dump missing fabric histogram family")
	}
}

// TestHitsProbeMatchesProcHits: hits are counted per access in Proc.Hits only
// and published to the Argoscope counter at fences and at the end of a Run, so
// after a Run the counter must equal the hits the threads counted — including
// those after a thread's last fence — and attaching metrics must not change
// how many there are.
func TestHitsProbeMatchesProcHits(t *testing.T) {
	const block = 16 * 512 // 16 pages = 4 whole lines per node: no line is shared
	run := func(ms *metrics.Suite) int64 {
		cfg := testConfig(2)
		if ms != nil {
			cfg.Observers = append(cfg.Observers, ms)
		}
		c := MustNewCluster(cfg)
		xs := c.AllocF64(2 * block)
		buf := make([][]float64, 2)
		c.Run(1, func(th *Thread) {
			lo := th.Node * block
			for i := lo; i < lo+block; i++ {
				th.SetF64(xs, i, float64(i))
			}
			th.ReleaseFence()
			th.AcquireFence()
			for i := lo; i < lo+block; i += 3 {
				th.GetF64(xs, i)
			}
			buf[th.Node] = make([]float64, block)
			th.ReadF64s(xs, lo, lo+block, buf[th.Node])
			th.ReleaseFence()
			for k := 0; k < 100; k++ { // after the last fence: published when the Run ends
				th.GetF64(xs, lo+k)
			}
		})
		return c.Hits()
	}
	ms := metrics.NewSuite()
	attached, detached := run(ms), run(nil)
	var counter int64
	for _, cs := range ms.Reg.Dump().Counters {
		if cs.Name == "argo_cache_events_total" && cs.Labels["event"] == "hit" {
			counter += cs.Value
		}
	}
	if attached < 2*block || counter != attached || detached != attached {
		t.Fatalf("hit counter %d, Proc.Hits attached %d, detached %d: want all equal and at least %d",
			counter, attached, detached, 2*block)
	}
}
