package metrics

import (
	"encoding/json"
	"io"
)

// JSON dump types (the machine-readable metrics.json the harness emits).

// ScalarJSON is one counter or gauge series.
type ScalarJSON struct {
	Name   string            `json:"name"`
	Help   string            `json:"help"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistJSON is one histogram series with its summary statistics.
type HistJSON struct {
	Name   string            `json:"name"`
	Help   string            `json:"help"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  int64             `json:"count"`
	Sum    int64             `json:"sum"`
	Mean   float64           `json:"mean"`
	Min    int64             `json:"min"`
	Max    int64             `json:"max"`
	P50    int64             `json:"p50"`
	P90    int64             `json:"p90"`
	P99    int64             `json:"p99"`
	P999   int64             `json:"p999"`
}

// DumpJSON is the full dump of a suite.
type DumpJSON struct {
	Counters   []ScalarJSON   `json:"counters"`
	Gauges     []ScalarJSON   `json:"gauges"`
	Histograms []HistJSON     `json:"histograms"`
	HotPages   []PageStat     `json:"hot_pages,omitempty"`
	HotLocks   []LockStatView `json:"hot_locks,omitempty"`
}

// Dump returns every series of the suite, families in name order and each
// family's series in label order; a suite that observed nothing has none.
func (s *Suite) Dump() DumpJSON {
	var d DumpJSON
	for _, se := range s.series {
		f := se.f
		var labels map[string]string
		if f.key != "" {
			labels = map[string]string{f.key: se.label}
		}
		switch in := se.in.(type) {
		case *counter:
			d.Counters = append(d.Counters, ScalarJSON{f.name, f.help, labels, in.v.Load()})
		case *gauge:
			d.Gauges = append(d.Gauges, ScalarJSON{f.name, f.help, labels, in.v.Load()})
		case *histogram:
			snap := in.snapshot()
			d.Histograms = append(d.Histograms, HistJSON{
				Name: f.name, Help: f.help, Labels: labels,
				Count: snap.Count, Sum: snap.Sum, Mean: snap.mean(),
				Min: snap.Min, Max: snap.Max,
				P50: snap.quantile(0.5), P90: snap.quantile(0.9),
				P99: snap.quantile(0.99), P999: snap.quantile(0.999),
			})
		}
	}
	return d
}

// WriteJSON writes the suite's dump including the hot-page and hot-lock
// profiles (top 32 each by total activity).
func (s *Suite) WriteJSON(w io.Writer) error {
	d := s.Dump()
	d.HotPages = s.Pages.TopK(32, TotalPageActivity)
	d.HotLocks = s.Locks.TopK(32, TotalLockActivity)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
