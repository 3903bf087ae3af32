package argo_test

import (
	"bytes"
	"reflect"
	"testing"

	"argo"
	"argo/internal/core"
	"argo/internal/locks"
	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/span"
	"argo/internal/workloads/wload"
)

// turnsProgram is a small lock-plus-barrier program with no contention (the
// nodes take the lock in turn, a barrier between turns), so every observer
// sees the same thing on every run.
func turnsProgram(c *argo.Cluster) {
	slot := c.AllocI64(1)
	l := locks.NewDSMMutex(c, 0)
	c.Run(1, func(th *argo.Thread) {
		for turn := 0; turn < th.NT; turn++ {
			if th.Node == turn {
				l.Lock(th)
				th.SetI64(slot, 0, th.GetI64(slot, 0)+1)
				l.Unlock(th)
			}
			th.Barrier()
		}
	})
}

// TestOneDoorEquivalence: options, Config fields, a workload-style runner
// handed the Config and core.MustNewCluster are four spellings of one
// construction — the same program, barrier included, leaves the same metrics
// dump, trace summary and span record count behind whichever built the
// cluster.
func TestOneDoorEquivalence(t *testing.T) {
	type observed struct {
		metrics []byte
		trace   map[probe.Kind]int
		spans   int
	}
	observe := func(build func(cfg argo.Config, ms *argo.Metrics, tr *argo.Tracer) *argo.Cluster) observed {
		ms, tr := argo.NewMetrics(), argo.NewTracer(0)
		cfg := argo.DefaultConfig(3)
		cfg.MemoryBytes = 4 << 20
		turnsProgram(build(cfg, ms, tr))
		var buf bytes.Buffer
		if err := ms.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		spans, _ := span.Records(tr.Events())
		return observed{buf.Bytes(), tr.Summary(), len(spans)}
	}
	withFields := func(cfg argo.Config, ms *argo.Metrics, tr *argo.Tracer) argo.Config {
		cfg.Observers = append(cfg.Observers, ms, tr)
		return cfg
	}
	options := observe(func(cfg argo.Config, ms *argo.Metrics, tr *argo.Tracer) *argo.Cluster {
		return argo.MustNewCluster(cfg, argo.WithMetrics(ms), argo.WithTracer(tr))
	})
	fields := observe(func(cfg argo.Config, ms *argo.Metrics, tr *argo.Tracer) *argo.Cluster {
		return argo.MustNewCluster(withFields(cfg, ms, tr))
	})
	runner := observe(func(cfg argo.Config, ms *argo.Metrics, tr *argo.Tracer) *argo.Cluster {
		return wload.MustCluster(withFields(cfg, ms, tr)) // what every workload runner calls
	})
	internal := observe(func(cfg argo.Config, ms *argo.Metrics, tr *argo.Tracer) *argo.Cluster {
		return core.MustNewCluster(withFields(cfg, ms, tr))
	})
	if options.spans == 0 || options.trace[probe.SDFence] == 0 || !bytes.Contains(options.metrics, []byte("argo_lock_acquires_total")) {
		t.Fatalf("observers saw too little: %d spans, trace %v", options.spans, options.trace)
	}
	for name, got := range map[string]observed{"Config fields": fields, "workload runner": runner, "core.MustNewCluster": internal} {
		if !bytes.Equal(got.metrics, options.metrics) {
			t.Errorf("%s: metrics dump differs from the With* options build", name)
		}
		if !reflect.DeepEqual(got.trace, options.trace) {
			t.Errorf("%s: trace summary %v, options build %v", name, got.trace, options.trace)
		}
		if got.spans != options.spans {
			t.Errorf("%s: %d span records, options build %d", name, got.spans, options.spans)
		}
	}
}

// TestObserversReachLaterSyncObjects: observers are wired when NewCluster
// returns, so a DSM lock and a flag built afterwards report into
// cfg.Observers with no further call (the old attach-before-building-locks hazard).
func TestObserversReachLaterSyncObjects(t *testing.T) {
	ms := argo.NewMetrics()
	cfg := argo.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	cfg.Observers = append(cfg.Observers, ms)
	c := argo.MustNewCluster(cfg)

	l := locks.NewDSMMutex(c, 0)
	f := argo.NewFlag(c, 0)
	slot := c.AllocI64(1)
	c.Run(1, func(th *argo.Thread) {
		if th.Node == 0 {
			l.Lock(th)
			th.SetI64(slot, 0, 42)
			l.Unlock(th)
			f.Signal(th)
		} else {
			f.Wait(th)
			if got := th.GetI64(slot, 0); got != 42 {
				panic("flag did not order the write")
			}
		}
	})
	hot := ms.Locks.TopK(4, metrics.TotalLockActivity)
	if len(hot) != 1 || hot[0].Acquires != 1 {
		t.Fatalf("lock built after NewCluster did not report: %+v", hot)
	}
	ops := map[string]int64{}
	for _, cs := range ms.Dump().Counters {
		if cs.Name == "argo_fabric_ops_total" {
			ops[cs.Labels["op"]] += cs.Value
		}
	}
	// The flag's publish and its waiter's poll are fabric operations.
	if ops["remote_write"] == 0 || ops["remote_read"] == 0 {
		t.Fatalf("flag built after NewCluster did not report: fabric ops %v", ops)
	}
}
