// Package metrics is Argoscope's measurement substrate: counters, gauges and
// mergeable latency histograms, exportable as JSON, plus hot-spot profiles
// (top-K pages and locks) for the protocol layers.
//
// A Suite is a sink of package probe: the protocol layers emit facts and
// series.go — the one place that knows series names, help strings and labels
// — says which facts feed which series. Observability that is off costs the
// emitters one nil check; when it is on, recording is atomic adds on sharded
// state — no locks on any path a simulated thread takes, the hot-spot
// profiles' apart.
package metrics

import "sync/atomic"

// counter is a monotonically increasing series.
type counter struct{ v atomic.Int64 }

// gauge is a series that can go up and down.
type gauge struct{ v atomic.Int64 }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)
