package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"argo/internal/stats"
)

// fingerprints are the simulated statistics that repeated exactly in
// measurement, recorded so a host-only change can prove it left the
// simulation alone. Fixed values hold for every seed, Seeded ones for Seed.
type fingerprints struct {
	Seed   int64                        `json:"seed"`
	Fixed  map[string]map[string]string `json:"fixed"`
	Seeded map[string]map[string]string `json:"seeded"`
}

//go:embed fingerprints.json
var recordedFingerprints []byte

func loadFingerprints() (fingerprints, error) {
	var f fingerprints
	err := json.Unmarshal(recordedFingerprints, &f)
	return f, err
}

// env is the header every run prints: what the numbers were taken on.
type env struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Geometry   string `json:"geometry"`
}

func currentEnv() env {
	return env{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Geometry: fmt.Sprintf("%d nodes x %d threads, lu_chaos %d x 1", benchNodes, benchTPN, chaosNodes),
	}
}

// workloadResult is one workload's share of a ledger.
type workloadResult struct {
	Name        string           `json:"name"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Errors      []string         `json:"errors,omitempty"`
	EndToEnd    map[string]dist  `json:"end_to_end"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	Fingerprint string           `json:"fingerprint"`
}

// ledger is the file -out writes and -compare reads.
type ledger struct {
	Env       env              `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
	// Layers are the unit costs, which do not depend on the workload.
	Layers      map[string]value `json:"layers,omitempty"`
	LayerErrors []string         `json:"layer_errors,omitempty"`
}

func (l ledger) workload(name string) (workloadResult, bool) {
	for _, w := range l.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

func na(metric, why string) value { return value{Unit: unitOf(metric), NA: why} }

// countsOf reduces the runs to the per-layer counts: the median over the
// runs of each counter the runner's report carries.
func countsOf(runs []sample) map[string]value {
	out := make(map[string]value)
	fromStats := map[string]func(stats.Snapshot) int64{
		"coherence.read_misses":        func(s stats.Snapshot) int64 { return s.ReadMisses },
		"coherence.write_misses":       func(s stats.Snapshot) int64 { return s.WriteMisses },
		"coherence.writebacks":         func(s stats.Snapshot) int64 { return s.Writebacks },
		"coherence.writeback_bytes":    func(s stats.Snapshot) int64 { return s.WritebackBytes },
		"coherence.self_invalidations": func(s stats.Snapshot) int64 { return s.SelfInvalidations },
		"coherence.si_filtered":        func(s stats.Snapshot) int64 { return s.SIFiltered },
		"coherence.si_fences":          func(s stats.Snapshot) int64 { return s.SIFences },
		"coherence.sd_fences":          func(s stats.Snapshot) int64 { return s.SDFences },
		"cache.cold_fetches":           func(s stats.Snapshot) int64 { return s.ColdFetches },
		"cache.prefetched_pages":       func(s stats.Snapshot) int64 { return s.PrefetchedPages },
		"directory.dir_ops":            func(s stats.Snapshot) int64 { return s.DirOps },
		"directory.dir_notifies":       func(s stats.Snapshot) int64 { return s.DirNotifies },
		"fabric.messages":              func(s stats.Snapshot) int64 { return s.Messages },
		"fabric.bytes_sent":            func(s stats.Snapshot) int64 { return s.BytesSent },
		"locks.handovers_local":        func(s stats.Snapshot) int64 { return s.LockHandoversLocal },
		"locks.handovers_remote":       func(s stats.Snapshot) int64 { return s.LockHandoversRemote },
		"locks.delegated_sections":     func(s stats.Snapshot) int64 { return s.DelegatedSections },
	}
	for _, m := range perLayer {
		if m.Clock != "count" {
			continue
		}
		var xs []float64
		for _, r := range runs {
			if f, ok := fromStats[m.Name]; ok && r.out.stats != nil {
				xs = append(xs, float64(f(*r.out.stats)))
			} else if v, ok := r.out.counts[m.Name]; ok {
				xs = append(xs, v)
			}
		}
		switch {
		case len(xs) > 0:
			out[m.Name] = value{Value: median(xs), Unit: m.Unit}
		case layerOf(m.Name) == "health":
			out[m.Name] = value{Unit: m.Unit} // fault-free: no membership events
		default:
			out[m.Name] = na(m.Name, "the runner's report does not carry it")
		}
	}
	return out
}

// ratio is a/(b) with its base spelled out; n/a when either side is.
func ratio(metric string, num, den value, base string) value {
	if num.NA != "" || den.NA != "" {
		return na(metric, "its counts are n/a")
	}
	if den.Value == 0 {
		return na(metric, "base is 0: "+base)
	}
	return value{Value: num.Value / den.Value, Unit: unitOf(metric), Base: fmt.Sprintf("%s = %.6g", base, den.Value)}
}

func plus(a, b value) value {
	if a.NA != "" || b.NA != "" {
		return value{NA: "n/a"}
	}
	return value{Value: a.Value + b.Value}
}

// perLayerOf computes the workload's own per-layer rows — counts, ratios,
// attribution, diagnostics — from its untraced runs and the unit costs.
func (s *session) perLayerOf(units map[string]value, runs []sample) map[string]value {
	out := countsOf(runs)
	c := func(name string) value { return out[name] }

	out["coherence.si_filter_ratio"] = ratio("coherence.si_filter_ratio", c("coherence.si_filtered"),
		plus(c("coherence.si_filtered"), c("coherence.self_invalidations")), "si_filtered + self_invalidations")
	out["coherence.bytes_per_writeback"] = ratio("coherence.bytes_per_writeback", c("coherence.writeback_bytes"), c("coherence.writebacks"), "writebacks")
	out["cache.prefetch_per_miss"] = ratio("cache.prefetch_per_miss", c("cache.prefetched_pages"), c("coherence.read_misses"), "read_misses")
	out["locks.local_handover_ratio"] = ratio("locks.local_handover_ratio", c("locks.handovers_local"),
		plus(c("locks.handovers_local"), c("locks.handovers_remote")), "handovers_local + handovers_remote")
	m := s.prep.model
	if m.sections > 0 {
		out["locks.delegation_ratio"] = ratio("locks.delegation_ratio", c("locks.delegated_sections"), value{Value: float64(m.sections)}, "operations")
	} else {
		out["locks.delegation_ratio"] = na("locks.delegation_ratio", "the workload takes no locks")
	}

	virt := column(runs, func(x sample) float64 { return x.virtMs })
	host := column(runs, func(x sample) float64 { return x.hostMs })
	out["sim.virt_iqr_pct"] = value{Value: 100 * summarize(virt, "ms").spread(), Unit: "%", Base: fmt.Sprintf("%d runs", len(virt))}
	if s.prep.faultFreeVirtNs > 0 {
		out["health.recovery_virt_overhead_pct"] = value{Value: 100 * (median(virt)*1e6/float64(s.prep.faultFreeVirtNs) - 1), Unit: "%",
			Base: fmt.Sprintf("fault-free makespan %.3f ms", float64(s.prep.faultFreeVirtNs)/1e6)}
	} else {
		out["health.recovery_virt_overhead_pct"] = na("health.recovery_virt_overhead_pct", "the workload injects no faults")
	}

	if v, pct, ok := tail(host); ok {
		out["host_run_ms_tail"] = value{Value: v, Unit: "ms", Base: fmt.Sprintf("p%.1f of %d runs", pct, len(host))}
	} else {
		out["host_run_ms_tail"] = na("host_run_ms_tail", fmt.Sprintf("%d runs; needs %d for ten samples beyond a percentile above the median", len(host), 2*tailBeyond))
	}
	out["core.heap_inuse_peak_mb"] = value{Value: s.peakHeap, Unit: "MB"}

	if len(s.traced) > 0 && len(runs) > 0 {
		traced := median(column(s.traced, func(x sample) float64 { return x.hostMs }))
		out["trace.overhead_pct"] = value{Value: 100 * (traced/median(host) - 1), Unit: "%",
			Base: fmt.Sprintf("untraced median %.3f ms over %d runs, traced over %d", median(host), len(host), len(s.traced))}
	} else {
		out["trace.overhead_pct"] = na("trace.overhead_pct", "no traced pass")
	}

	s.attribute(out, units, median(column(runs, func(x sample) float64 { return x.cpuMs })))
	return out
}

// attribute fills the attrib.* rows: count x unit host cost as a share of
// the run's CPU time. The unit costs are single-goroutine costs, so their
// sum is CPU time; against wall clock two busy cores would pass 100 %.
func (s *session) attribute(out, units map[string]value, cpuMs float64) {
	rows := []string{"attrib.access_pct", "attrib.miss_pct", "attrib.fence_pct", "attrib.sync_pct", "attrib.core_pct", "attrib.unattributed_pct"}
	if len(units) == 0 {
		for _, r := range rows {
			out[r] = na(r, "unit costs come from the traced pass")
		}
		return
	}
	m := s.prep.model
	u := func(name string) float64 { return units[name].Value }
	known := func(names ...string) bool {
		for _, n := range names {
			if out[n].NA != "" {
				return false
			}
		}
		return true
	}
	c := func(name string) float64 { return out[name].Value }
	base := fmt.Sprintf("host_cpu_ms_per_run = %.3f", cpuMs)
	pct := func(row string, ns float64) float64 {
		p := 100 * ns / (cpuMs * 1e6)
		out[row] = value{Value: p, Unit: "%", Base: base}
		return p
	}
	var sum float64
	whole := true
	missing := func(row, why string) {
		out[row] = na(row, why)
		whole = false
	}

	hit := u("cache.read_hit_host_ns")
	if m.gather {
		hit = u("cache.read_stride_host_ns")
	}
	if m.scalarReads+m.scalarWrites == 0 && m.bulkReadKB+m.bulkWriteKB == 0 {
		missing("attrib.access_pct", "the accesses are not derivable from the inputs")
	} else {
		sum += pct("attrib.access_pct", float64(m.scalarReads)*hit+float64(m.scalarWrites)*u("cache.write_hit_host_ns")+
			m.bulkReadKB*u("coherence.bulk_read_host_ns_per_kb")+m.bulkWriteKB*u("coherence.bulk_write_host_ns_per_kb"))
	}
	if known("coherence.read_misses", "coherence.write_misses") {
		sum += pct("attrib.miss_pct", c("coherence.read_misses")*u("coherence.read_miss_host_ns")+c("coherence.write_misses")*u("coherence.write_miss_host_ns"))
	} else {
		missing("attrib.miss_pct", "miss counts are n/a")
	}
	if known("coherence.self_invalidations", "coherence.si_filtered", "coherence.writebacks") {
		sum += pct("attrib.fence_pct", (c("coherence.self_invalidations")+c("coherence.si_filtered"))*u("coherence.si_fence_host_ns_per_page")+
			c("coherence.writebacks")*u("coherence.sd_fence_host_ns_per_page"))
	} else {
		missing("attrib.fence_pct", "fence counts are n/a")
	}
	switch {
	case m.sections > 0:
		sum += pct("attrib.sync_pct", float64(m.sections)*u(m.lockMetric))
	case known("coherence.sd_fences"):
		// Every barrier episode is one SD fence per node.
		sum += pct("attrib.sync_pct", c("coherence.sd_fences")/benchNodes*u("vela.barrier_host_us")*1e3)
	default:
		missing("attrib.sync_pct", "barrier count is n/a")
	}
	sum += pct("attrib.core_pct", u("core.new_cluster_host_ms")*1e6+u("core.launch_host_us")*1e3+
		m.initKB*u("core.init_host_ns_per_kb")+m.dumpKB*u("core.dump_host_ns_per_kb"))
	if whole {
		out["attrib.unattributed_pct"] = value{Value: 100 - sum, Unit: "%", Base: base}
	} else {
		missing("attrib.unattributed_pct", "an attribution row is n/a")
	}
}

func (s *session) result(rec fingerprints, units map[string]value, withLayers bool) workloadResult {
	r := workloadResult{
		Name: s.w.name, Attempted: s.attempted, Failed: s.failed, Errors: s.errs,
		EndToEnd: s.endToEndOf(), Fingerprint: s.fingerprintVerdict(rec),
	}
	if withLayers {
		r.PerLayer = s.perLayerOf(units, s.timed)
	}
	return r
}

func fmtValue(v value) string {
	if v.NA != "" {
		return "n/a (" + v.NA + ")"
	}
	s := fmt.Sprintf("%.6g %s", v.Value, v.Unit)
	if v.Base != "" {
		s += "  [" + v.Base + "]"
	}
	return s
}

func printEnv(w io.Writer, e env, seed int64, seconds float64) {
	fmt.Fprintf(w, "argo perf ledger: %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g geometry=%s\n",
		e.Go, e.OS, e.Arch, e.NumCPU, e.GOMAXPROCS, seed, seconds, e.Geometry)
}

func printWorkload(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "\nworkload %s: attempted %d, failed %d, fingerprint: %s\n", r.Name, r.Attempted, r.Failed, r.Fingerprint)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	for _, m := range append(endToEnd, metricDef{Name: failShare, Clock: "count"}) {
		d := r.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-24s %12.6g %-16s q1 %.6g q3 %.6g n %d (%s clock)\n", m.Name, d.Median, d.Unit, d.Q1, d.Q3, d.N, m.Clock)
	}
	if r.PerLayer == nil {
		return
	}
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "  %-40s %s\n", m.Name, fmtValue(v))
		}
	}
}

func printLayers(w io.Writer, layers map[string]value, errs []string) {
	fmt.Fprintf(w, "\nper-layer unit costs (%d nodes):\n", benchNodes)
	for _, m := range perLayer {
		if v, ok := layers[m.Name]; ok {
			fmt.Fprintf(w, "  %-40s %s (%s clock)\n", m.Name, fmtValue(v), m.Clock)
		}
	}
	for _, e := range errs {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (ledger, error) {
	var l ledger
	b, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(b, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// newFingerprints collects what the sessions saw, for -update-fingerprints.
func newFingerprints(seed int64, ss []*session) fingerprints {
	f := fingerprints{Seed: seed, Fixed: map[string]map[string]string{}, Seeded: map[string]map[string]string{}}
	for _, s := range ss {
		f.Fixed[s.w.name] = s.fixed
		if len(s.seeded) > 0 {
			f.Seeded[s.w.name] = s.seeded
		}
	}
	return f
}
