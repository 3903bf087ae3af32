package coherence

import "argo/internal/metrics"

// Probes are Carina's Argoscope instruments: fence duration histograms, the
// per-fence distribution of pages invalidated vs. retained (the direct
// measure of how well the Pyxis classification filters SI), labeled fence
// outcome counters, and the per-page hot-spot profile. Node.MX is nil
// unless metrics are attached; hot paths pay one nil check.
type Probes struct {
	SIFenceNs *metrics.Histogram // SI fence duration
	SDFenceNs *metrics.Histogram // SD fence duration

	SIInvPerFence  *metrics.Histogram // pages invalidated per SI fence
	SIKeptPerFence *metrics.Histogram // pages retained per SI fence

	PagesInvalidated *metrics.Counter
	PagesKept        *metrics.Counter

	// Lyra fence-pipeline series: per-burst size in pages and distinct
	// homes (how much the home-grouped batching amortizes), and the write
	// buffer's residue when a fence begins.
	BurstPages        *metrics.Histogram
	BurstHomes        *metrics.Histogram
	DrainResiduePages *metrics.Histogram

	// Pages attributes protocol events (misses, writebacks,
	// invalidations, notifies, evictions) to pages for argo-top.
	Pages *metrics.PageProfile
}

// NewProbes resolves Carina's metric series in r and binds the shared
// page profile.
func NewProbes(r *metrics.Registry, pages *metrics.PageProfile) *Probes {
	const (
		fenceName = "argo_fence_ns"
		fenceHelp = "Virtual duration of coherence fences"
		siName    = "argo_si_fence_pages"
		siHelp    = "Pages examined per SI fence by outcome"
		cntName   = "argo_fence_pages_total"
		cntHelp   = "Pages processed at SI fences by outcome"
	)
	return &Probes{
		SIFenceNs:        r.Histogram(fenceName, fenceHelp, metrics.L("kind", "si")),
		SDFenceNs:        r.Histogram(fenceName, fenceHelp, metrics.L("kind", "sd")),
		SIInvPerFence:    r.Histogram(siName, siHelp, metrics.L("outcome", "invalidated")),
		SIKeptPerFence:   r.Histogram(siName, siHelp, metrics.L("outcome", "kept")),
		PagesInvalidated: r.Counter(cntName, cntHelp, metrics.L("outcome", "invalidated")),
		PagesKept:        r.Counter(cntName, cntHelp, metrics.L("outcome", "kept")),
		BurstPages: r.Histogram("argo_fence_burst_pages",
			"Pages posted per home-grouped fence downgrade burst"),
		BurstHomes: r.Histogram("argo_fence_burst_homes",
			"Distinct home nodes per fence downgrade burst"),
		DrainResiduePages: r.Histogram("argo_fence_drain_residue_pages",
			"Write-buffer entries remaining when an SD fence begins"),
		Pages: pages,
	}
}
