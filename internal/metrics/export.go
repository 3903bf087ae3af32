package metrics

import (
	"encoding/json"
	"io"
	"sort"
)

type exportSeries struct {
	key     seriesKey
	counter *Counter
	gauge   *gauge
	hist    *histogram
}

// snapshotSeries returns all series grouped by family, families and series
// sorted by name for a stable dump.
func (r *Registry) snapshotSeries() (fams []*family, byFam map[string][]exportSeries) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byFam = map[string][]exportSeries{}
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for k, c := range r.counters {
		byFam[k.name] = append(byFam[k.name], exportSeries{key: k, counter: c})
	}
	for k, g := range r.gauges {
		byFam[k.name] = append(byFam[k.name], exportSeries{key: k, gauge: g})
	}
	for k, h := range r.hists {
		byFam[k.name] = append(byFam[k.name], exportSeries{key: k, hist: h})
	}
	for _, ss := range byFam {
		sort.Slice(ss, func(i, j int) bool { return ss[i].key.labels < ss[j].key.labels })
	}
	return fams, byFam
}

// JSON dump types (the machine-readable metrics.json the harness emits).

// ScalarJSON is one counter or gauge series.
type ScalarJSON struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistJSON is one histogram series with its summary statistics.
type HistJSON struct {
	Name   string            `json:"name"`
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

// DumpJSON is the full registry dump.
type DumpJSON struct {
	Counters   []ScalarJSON   `json:"counters"`
	Gauges     []ScalarJSON   `json:"gauges"`
	Histograms []HistJSON     `json:"histograms"`
	HotPages   []PageStat     `json:"hot_pages,omitempty"`
	HotLocks   []LockStatView `json:"hot_locks,omitempty"`
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Val
	}
	return m
}

// Dump builds the JSON dump structure of the registry.
func (r *Registry) Dump() DumpJSON {
	fams, byFam := r.snapshotSeries()
	var d DumpJSON
	for _, f := range fams {
		for _, s := range byFam[f.name] {
			switch {
			case s.counter != nil:
				d.Counters = append(d.Counters, ScalarJSON{f.name, labelMap(s.counter.labels), s.counter.Value()})
			case s.gauge != nil:
				d.Gauges = append(d.Gauges, ScalarJSON{f.name, labelMap(s.gauge.labels), s.gauge.value()})
			case s.hist != nil:
				snap := s.hist.snapshot()
				d.Histograms = append(d.Histograms, HistJSON{
					Name: f.name, Labels: labelMap(s.hist.labels),
					Count: snap.Count, Sum: snap.Sum, Mean: snap.mean(),
					Min: snap.Min, Max: snap.Max,
					P50: snap.quantile(0.5), P90: snap.quantile(0.9),
					P99: snap.quantile(0.99), P999: snap.quantile(0.999),
				})
			}
		}
	}
	return d
}

// WriteJSON writes the suite's registry dump including the hot-page and
// hot-lock profiles (top 32 each by total activity).
func (s *Suite) WriteJSON(w io.Writer) error {
	d := s.Reg.Dump()
	d.HotPages = s.Pages.TopK(32, TotalPageActivity)
	d.HotLocks = s.Locks.TopK(32, TotalLockActivity)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
