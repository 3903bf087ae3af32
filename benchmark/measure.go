package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// repSeed derives the input seed of repetition rep: the warm-up (rep 0)
// runs the seed itself, timed repetitions each run a plan of their own, so
// one run's median covers a family of fault schedules and access patterns
// instead of one draw.
func repSeed(seed int64, rep int) int64 {
	if rep == 0 {
		return seed
	}
	return seed*1_000_003 + int64(rep)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a supported platform
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// sample is one complete, checked runner call on both clocks.
type sample struct {
	hostMs, cpuMs, allocMB, virtMs float64
	out                            outcome
}

// session measures one workload: set-up passes, then timed repetitions.
type session struct {
	w    workload
	seed int64
	tiny bool
	// corrupt falsifies the reference, for the test that a wrong answer is
	// counted as a failure.
	corrupt bool

	prep      *prepared
	setups    []float64 // seconds per set-up pass
	timed     []sample
	traced    []sample
	nextRep   int
	spent     time.Duration // wall clock of the timed repetitions so far
	attempted int
	failed    int
	errs      []string

	fixed    map[string]string // exact-repeating values, from the first run
	seeded   map[string]string // seed-specific ones, from the warm-up
	unstable []string          // fixed keys that differed between two runs
	peakHeap float64           // MB
}

func (s *session) fail(what string, err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// run makes one checked runner call. A panic on the calling goroutine is a
// failed repetition; one on a simulated thread's goroutine ends the process,
// which no result line survives.
func (s *session) run(rep int, tr *tracer) (smp sample, ok bool) {
	s.attempted++
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin("run", s.w.name)
	c0, t0 := cpuTime(), time.Now()
	out, err := func() (o outcome, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return s.prep.run(rep)
	}()
	host, cpu := time.Since(t0), cpuTime()-c0
	tr.end(id, 1, out.virtNs)
	runtime.ReadMemStats(&m1)
	if mb := float64(m1.HeapInuse) / (1 << 20); mb > s.peakHeap {
		s.peakHeap = mb
	}
	if err == nil {
		tr.in("verify", s.w.name, func() { err = s.prep.verify(out) })
	}
	if err != nil {
		s.fail(fmt.Sprintf("rep %d", rep), err)
		return sample{}, false
	}
	if s.fixed == nil {
		s.fixed = out.fixed
	}
	for k, v := range out.fixed {
		if s.fixed[k] != v {
			s.unstable = append(s.unstable, k)
		}
	}
	return sample{
		hostMs:  float64(host) / 1e6,
		cpuMs:   float64(cpu) / 1e6,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		virtMs:  float64(out.virtNs) / 1e6,
		out:     out,
	}, true
}

// setup is one set-up pass: inputs, reference answer, one checked warm-up.
func (s *session) setup(tr *tracer) error {
	t0 := time.Now()
	id := tr.begin("inputs", s.w.name)
	p, err := s.w.prepare(s.seed, s.tiny, s.corrupt)
	tr.end(id, 1, 0)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", s.w.name, err)
	}
	s.prep = p
	if smp, ok := s.run(0, tr); ok {
		s.seeded = smp.out.seeded
	}
	s.setups = append(s.setups, time.Since(t0).Seconds())
	return nil
}

func (s *session) rep(tr *tracer) {
	s.nextRep++
	id := tr.begin(fmt.Sprintf("rep/%d", s.nextRep), s.w.name)
	t0 := time.Now()
	smp, ok := s.run(s.nextRep, tr)
	if tr == nil {
		s.spent += time.Since(t0)
	}
	tr.end(id, 1, 0)
	switch {
	case !ok:
	case tr == nil:
		s.timed = append(s.timed, smp)
	default:
		s.traced = append(s.traced, smp)
	}
}

func column(xs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// endToEndOf reduces the timed repetitions to the end-to-end metrics.
func (s *session) endToEndOf() map[string]dist {
	cols := map[string]func(sample) float64{
		"host_run_ms":           func(x sample) float64 { return x.hostMs },
		"host_cpu_ms_per_run":   func(x sample) float64 { return x.cpuMs },
		"host_alloc_mb_per_run": func(x sample) float64 { return x.allocMB },
		"virt_makespan_ms":      func(x sample) float64 { return x.virtMs },
	}
	out := map[string]dist{"setup_s": summarize(s.setups, "s")}
	for _, m := range endToEnd {
		if f, ok := cols[m.Name]; ok {
			out[m.Name] = summarize(column(s.timed, f), m.Unit)
		}
	}
	share := float64(s.failed) / float64(max(s.attempted, 1))
	out[failShare] = dist{Median: share, Q1: share, Q3: share, N: s.attempted, Unit: "failed/attempted"}
	return out
}

// fingerprintVerdict compares the run's exact-repeating values with the
// recorded ones. Seed-specific values only compare at the recorded seed.
func (s *session) fingerprintVerdict(rec fingerprints) string {
	if len(s.unstable) > 0 {
		sort.Strings(s.unstable)
		return fmt.Sprintf("CHANGED (%s differed between two runs of this process)", s.unstable[0])
	}
	diff := func(got, want map[string]string) string {
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if got[k] != want[k] {
				return fmt.Sprintf("CHANGED (%s is %s, recorded %s)", k, got[k], want[k])
			}
		}
		return ""
	}
	if s.tiny {
		return "n/a (tiny inputs)"
	}
	want, ok := rec.Fixed[s.w.name]
	if !ok {
		return "n/a (none recorded)"
	}
	if d := diff(s.fixed, want); d != "" {
		return d
	}
	if s.seed == rec.Seed {
		if d := diff(s.seeded, rec.Seeded[s.w.name]); d != "" {
			return d
		}
	}
	return "same"
}
