// Package metrics is Argoscope's measurement substrate: a registry of
// labeled counters, gauges and mergeable latency histograms, exportable as
// JSON, plus hot-spot profiles (top-K pages and locks) for the protocol
// layers.
//
// A Suite is a sink of package probe: the protocol layers emit facts and
// series.go — the one place that knows series names, help strings and labels
// — says which facts feed which series. Observability that is off costs the
// emitters one nil check; when it is on, recording is atomic adds on sharded
// state — no locks on any path a simulated thread takes, the hot-spot
// profiles' apart.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric dimension.
type Label struct {
	Key string
	Val string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Val: v} }

// Counter is a monotonically increasing labeled counter; a nil one ignores
// updates.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// add adds d (d must be non-negative: a counter only grows).
func (c *Counter) add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// gauge is a labeled value that can go up and down; a nil one ignores updates.
type gauge struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// set stores v.
func (g *gauge) set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// value returns the current value.
func (g *gauge) value() int64 { return g.v.Load() }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type family struct {
	name string
	help string
	kind metricKind
}

type seriesKey struct {
	name   string
	labels string // canonical encoding
}

// Registry holds all metric families and their labeled series. Looking up a
// collector is idempotent: the same (name, labels) always returns the same
// instance, so probes of many clusters can share series.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	counters map[seriesKey]*Counter
	gauges   map[seriesKey]*gauge
	hists    map[seriesKey]*histogram
}

// newRegistry creates an empty registry.
func newRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		counters: map[seriesKey]*Counter{},
		gauges:   map[seriesKey]*gauge{},
		hists:    map[seriesKey]*histogram{},
	}
}

func canonLabels(labels []Label) ([]Label, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Val)
	}
	return ls, b.String()
}

func (r *Registry) family(name, help string, k metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as two different kinds", name))
	}
	return f
}

// Counter returns (creating on first use) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	ls, enc := canonLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindCounter)
	k := seriesKey{name, enc}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{name: name, labels: ls}
		r.counters[k] = c
	}
	return c
}

// gauge returns (creating on first use) the gauge series name{labels}.
func (r *Registry) gauge(name, help string, labels ...Label) *gauge {
	ls, enc := canonLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindGauge)
	k := seriesKey{name, enc}
	g, ok := r.gauges[k]
	if !ok {
		g = &gauge{name: name, labels: ls}
		r.gauges[k] = g
	}
	return g
}

// histogram returns (creating on first use) the histogram series
// name{labels}.
func (r *Registry) histogram(name, help string, labels ...Label) *histogram {
	ls, enc := canonLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindHistogram)
	k := seriesKey{name, enc}
	h, ok := r.hists[k]
	if !ok {
		h = newHistogram(name, ls)
		r.hists[k] = h
	}
	return h
}
