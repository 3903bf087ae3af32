package cache

import "argo/internal/metrics"

// Probes are the page cache's Argoscope instruments. Hits, misses and
// evictions are labeled counters on one family; the write-buffer drain size
// is a histogram (how much work an SD fence has left is exactly what the
// FIFO write buffer exists to bound). Cache.MX is nil unless metrics are
// attached; the miss and fence paths pay one nil check. Hits is published in
// batches, at fences and at the end of a launch, from the threads' own hit
// counts (coherence.Node.PublishHits) — a hit itself touches no probe.
type Probes struct {
	Hits      *metrics.Counter
	Misses    *metrics.Counter
	Evictions *metrics.Counter
	// WBDrainPages observes len(write buffer) at each drain.
	WBDrainPages *metrics.Histogram
}

// NewProbes resolves the cache's metric series in r.
func NewProbes(r *metrics.Registry) *Probes {
	const (
		cntName = "argo_cache_events_total"
		cntHelp = "Page-cache events by kind"
	)
	return &Probes{
		Hits:      r.Counter(cntName, cntHelp, metrics.L("event", "hit")),
		Misses:    r.Counter(cntName, cntHelp, metrics.L("event", "miss")),
		Evictions: r.Counter(cntName, cntHelp, metrics.L("event", "eviction")),
		WBDrainPages: r.Histogram("argo_cache_wb_drain_pages",
			"Write-buffer entries drained per SD fence"),
	}
}
