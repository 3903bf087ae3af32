package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"argo"
	"argo/internal/core"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/locks"
	"argo/internal/mem"
	"argo/internal/sim"
	"argo/internal/vela"
	"argo/internal/workloads/wload"
)

// value is one per-layer number. NA, when set, says why the number could
// not be taken on this workload; Base states what a ratio is a share of.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	NA    string  `json:"na,omitempty"`
	Base  string  `json:"base,omitempty"`
}

// sink keeps the measured loads alive past the optimiser.
var sink float64

// layerRun times batches of calls into each layer's public functions. The
// drivers belong to the benchmark: they call the library, they do not copy
// it. Every batch is a span when a tracer is attached.
type layerRun struct {
	tr   *tracer
	out  map[string]value
	errs []string
}

func layerOf(metric string) string { return metric[:strings.IndexByte(metric, '.')] }

func unitOf(metric string) string {
	for _, m := range perLayer {
		if m.Name == metric {
			return m.Unit
		}
	}
	panic("benchmark: unregistered per-layer metric " + metric)
}

func (r *layerRun) set(metric string, v float64) {
	r.out[metric] = value{Value: v, Unit: unitOf(metric)}
}

func (r *layerRun) fail(metric, format string, args ...any) {
	r.errs = append(r.errs, metric+": "+fmt.Sprintf(format, args...))
}

// batches runs f nb times, each a batch of calls calls that reports its own
// host time and virtual-clock advance, and returns the median host and
// virtual nanoseconds per call.
func (r *layerRun) batches(metric string, nb, calls int, f func() (time.Duration, sim.Time)) (host, virt float64) {
	// Start every driver from a collected heap, so the previous driver's
	// garbage is not collected on this one's clock.
	runtime.GC()
	d := r.tr.begin("driver/"+metric, layerOf(metric))
	hs := make([]float64, nb)
	vs := make([]float64, nb)
	for j := 0; j < nb; j++ {
		b := r.tr.begin(fmt.Sprintf("batch/%d", j), layerOf(metric))
		h, v := f()
		r.tr.end(b, int64(calls), int64(v))
		hs[j] = float64(h) / float64(calls)
		vs[j] = float64(v) / float64(calls)
	}
	r.tr.end(d, int64(nb*calls), 0)
	return median(hs), median(vs)
}

// layer groups a module's drivers under one span.
func (r *layerRun) layer(module string, f func()) {
	id := r.tr.begin("layer/"+module, module)
	f()
	r.tr.end(id, 1, 0)
}

func newCluster() *core.Cluster { return wload.MustCluster(argoCfg()) }

// onThread0 runs body as rank 0 of a one-thread-per-node launch; the other
// ranks return at once.
func onThread0(c *core.Cluster, body func(th *core.Thread)) {
	c.Run(1, func(th *core.Thread) {
		if th.Rank == 0 {
			body(th)
		}
	})
}

// timed measures f on the thread's two clocks.
func timed(th *core.Thread, f func()) (time.Duration, sim.Time) {
	v0, t0 := th.P.Now(), time.Now()
	f()
	return time.Since(t0), th.P.Now() - v0
}

const wordsPerPage = 4096 / 8

func readHit(r *layerRun, metric string, c *core.Cluster) {
	xs := c.AllocF64(wordsPerPage)
	const n = 1 << 19
	onThread0(c, func(th *core.Thread) {
		th.GetF64(xs, 0)
		h, _ := r.batches(metric, 5, n, func() (time.Duration, sim.Time) {
			return timed(th, func() {
				for i := 0; i < n; i++ {
					sink += th.GetF64(xs, i&(wordsPerPage-1))
				}
			})
		})
		r.set(metric, h)
	})
}

func (r *layerRun) cacheDrivers() {
	readHit(r, "cache.read_hit_host_ns", newCluster())
	c := newCluster()
	xs := c.AllocF64(64 * wordsPerPage)
	mask := xs.Len - 1
	const n = 1 << 19
	onThread0(c, func(th *core.Thread) {
		for i := 0; i < xs.Len; i += wordsPerPage {
			th.GetF64(xs, i)
		}
		h, _ := r.batches("cache.read_stride_host_ns", 5, n, func() (time.Duration, sim.Time) {
			return timed(th, func() {
				for i := 0; i < n; i++ {
					sink += th.GetF64(xs, (i*17)&mask)
				}
			})
		})
		r.set("cache.read_stride_host_ns", h)
		for i := 0; i < xs.Len; i += wordsPerPage {
			th.SetF64(xs, i, 1)
		}
		h, _ = r.batches("cache.write_hit_host_ns", 5, n, func() (time.Duration, sim.Time) {
			return timed(th, func() {
				for i := 0; i < n; i++ {
					th.SetF64(xs, (i*17)&mask, float64(i))
				}
			})
		})
		r.set("cache.write_hit_host_ns", h)
	})
}

func (r *layerRun) missDrivers() {
	const batches, lines, perLine = 5, 256, 4
	c := newCluster()
	xs := c.AllocF64(batches * lines * perLine * wordsPerPage)
	onThread0(c, func(th *core.Thread) {
		// Every access opens a fresh 4-page line, so each is one miss.
		b := 0
		h, v := r.batches("coherence.read_miss_host_ns", batches, lines, func() (time.Duration, sim.Time) {
			base := b * lines
			b++
			return timed(th, func() {
				for i := 0; i < lines; i++ {
					sink += th.GetF64(xs, (base+i)*perLine*wordsPerPage)
				}
			})
		})
		r.set("coherence.read_miss_host_ns", h)
		r.set("coherence.read_miss_virt_ns", v)
		// The pages are now resident and clean: the first store to each is
		// a write miss without a fetch.
		const pages = lines * perLine
		b = 0
		h, v = r.batches("coherence.write_miss_host_ns", batches, pages, func() (time.Duration, sim.Time) {
			base := b * pages
			b++
			return timed(th, func() {
				for i := 0; i < pages; i++ {
					th.SetF64(xs, (base+i)*wordsPerPage, 1)
				}
			})
		})
		r.set("coherence.write_miss_host_ns", h)
		r.set("coherence.write_miss_virt_ns", v)
	})
	if s := c.Stats(); s.ReadMisses != batches*lines || s.WriteMisses != batches*lines*perLine {
		r.fail("coherence.read_miss_host_ns", "driver made %d read and %d write misses, want %d and %d",
			s.ReadMisses, s.WriteMisses, batches*lines, batches*lines*perLine)
	}

	// drf_scatter's geometry: 128-page cache, 64-page write buffer, a
	// 256-page working set, so in steady state every store evicts.
	cfg := argoCfg()
	cfg.CacheLines, cfg.PagesPerLine, cfg.WriteBufferPages = 64, 2, 64
	small := wload.MustCluster(cfg)
	const set = 256
	ys := small.AllocF64(set * wordsPerPage)
	onThread0(small, func(th *core.Thread) {
		for i := 0; i < set; i++ {
			th.SetF64(ys, i*wordsPerPage, 1)
		}
		h, _ := r.batches("coherence.conflict_evict_host_ns", 5, 2*set, func() (time.Duration, sim.Time) {
			return timed(th, func() {
				for i := 0; i < 2*set; i++ {
					th.SetF64(ys, (i%set)*wordsPerPage, float64(i))
				}
			})
		})
		r.set("coherence.conflict_evict_host_ns", h)
	})
}

func (r *layerRun) bulkDrivers() {
	// LU's access shape: 32-word rows of a 768-wide matrix.
	const n, row, rows = 768, 32, 1024
	c := newCluster()
	xs := c.AllocF64(n * n)
	buf := make([]float64, row)
	at := func(i int) int { return (i%n)*n + (i%(n/row))*row }
	onThread0(c, func(th *core.Thread) {
		all := make([]float64, n*n)
		th.ReadF64s(xs, 0, n*n, all)
		h, _ := r.batches("coherence.bulk_read_host_ns_per_kb", 5, rows, func() (time.Duration, sim.Time) {
			return timed(th, func() {
				for i := 0; i < rows; i++ {
					th.ReadF64s(xs, at(i), at(i)+row, buf)
				}
			})
		})
		r.set("coherence.bulk_read_host_ns_per_kb", h*1024/(row*8))
		th.WriteF64s(xs, 0, all)
		h, _ = r.batches("coherence.bulk_write_host_ns_per_kb", 5, rows, func() (time.Duration, sim.Time) {
			return timed(th, func() {
				for i := 0; i < rows; i++ {
					th.WriteF64s(xs, at(i), buf)
				}
			})
		})
		r.set("coherence.bulk_write_host_ns_per_kb", h*1024/(row*8))
	})
}

func (r *layerRun) fenceDrivers() {
	const siPages, sdPages = 1024, 256
	c := newCluster()
	xs := c.AllocF64(siPages * wordsPerPage)
	onThread0(c, func(th *core.Thread) {
		for i := 0; i < siPages; i++ {
			th.GetF64(xs, i*wordsPerPage)
		}
		const fences = 20
		h, v := r.batches("coherence.si_fence_host_ns_per_page", 5, fences, func() (time.Duration, sim.Time) {
			return timed(th, func() {
				for i := 0; i < fences; i++ {
					th.AcquireFence()
				}
			})
		})
		r.set("coherence.si_fence_host_ns_per_page", h/siPages)
		r.set("coherence.si_fence_virt_ns", v)
	})
	c = newCluster()
	ys := c.AllocF64(sdPages * wordsPerPage)
	onThread0(c, func(th *core.Thread) {
		const fences = 8
		round := 0
		h, v := r.batches("coherence.sd_fence_host_ns_per_page", 5, fences, func() (time.Duration, sim.Time) {
			var host time.Duration
			var virt sim.Time
			for i := 0; i < fences; i++ {
				round++
				for pg := 0; pg < sdPages; pg++ {
					th.SetF64(ys, pg*wordsPerPage+round%wordsPerPage, float64(round))
				}
				dh, dv := timed(th, th.ReleaseFence)
				host, virt = host+dh, virt+dv
			}
			return host, virt
		})
		r.set("coherence.sd_fence_host_ns_per_page", h/sdPages)
		r.set("coherence.sd_fence_virt_ns", v)
	})
}

func (r *layerRun) memDrivers() {
	const ps = 4096
	s := mem.NewSpace(1, 16*ps, ps, mem.Interleaved)
	base := make([]byte, ps)
	sparse := make([]byte, ps)
	dense := make([]byte, ps)
	for i := range dense {
		dense[i] = byte(i + 1)
		if i%256 < 32 {
			sparse[i] = byte(i + 1)
		}
	}
	host := func(metric string, calls int, f func()) {
		h, _ := r.batches(metric, 5, calls, func() (time.Duration, sim.Time) {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				f()
			}
			return time.Since(t0), 0
		})
		r.set(metric, h)
	}
	host("mem.apply_diff_sparse_host_ns", 20000, func() { s.ApplyDiff(0, sparse, base) })
	host("mem.apply_diff_dense_host_ns", 5000, func() { s.ApplyDiff(1, dense, base) })
	dst := make([]byte, ps)
	host("mem.read_page_host_ns", 20000, func() { s.ReadPage(0, dst) })
}

// remotePage is homed on another node than 0 under the interleaved policy.
const remotePage = 1

func (r *layerRun) directoryDrivers() {
	c := newCluster()
	if c.Space.HomeOf(remotePage) == 0 {
		r.fail("directory.register_reader_host_ns", "page %d is homed on node 0", remotePage)
	}
	p := c.Topo.NewProc(0, 0)
	const calls = 4096
	reg := func(metric string, f func(page int)) {
		h, _ := r.batches(metric, 5, calls, func() (time.Duration, sim.Time) {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				f(remotePage + 4*(i%4000))
			}
			return time.Since(t0), 0
		})
		r.set(metric, h)
	}
	reg("directory.register_reader_host_ns", func(page int) { c.Dir.RegisterReader(p, page, 0) })
	reg("directory.register_writer_host_ns", func(page int) { c.Dir.RegisterWriter(p, page, 0) })
	pages := make([]int, 1024)
	for i := range pages {
		pages[i] = i
	}
	out := make([]directory.Entry, len(pages))
	const sweeps = 200
	h, _ := r.batches("directory.cached_many_host_ns_per_page", 5, sweeps, func() (time.Duration, sim.Time) {
		t0 := time.Now()
		for i := 0; i < sweeps; i++ {
			c.Dir.CachedMany(0, pages, out)
		}
		return time.Since(t0), 0
	})
	r.set("directory.cached_many_host_ns_per_page", h/float64(len(pages)))
}

func (r *layerRun) fabricDrivers() {
	c := newCluster()
	f := c.Fab
	p := c.Topo.NewProc(0, 0)
	both := func(metric string, calls int, per float64, op func(i int)) {
		h, v := r.batches(metric, 5, calls, func() (time.Duration, sim.Time) {
			v0, t0 := p.Now(), time.Now()
			for i := 0; i < calls; i++ {
				op(i)
			}
			return time.Since(t0), p.Now() - v0
		})
		r.set(metric, h/per)
		r.set(strings.Replace(metric, "_host_", "_virt_", 1), v/per)
	}
	both("fabric.remote_read_host_ns", 20000, 1, func(i int) { f.RemoteRead(p, 1, 4096, uint64(i)) })
	both("fabric.remote_atomic_host_ns", 20000, 1, func(i int) { f.RemoteAtomic(p, 1, uint64(i)) })
	items := make([]fabric.PostItem, 64)
	for i := range items {
		items[i] = fabric.PostItem{Home: 1 + i*3/len(items), Bytes: 1024, Key: uint64(i)}
	}
	both("fabric.post_write_burst_host_ns_per_item", 500, float64(len(items)), func(int) {
		if failed := f.PostWriteBurst(p, items); len(failed) != 0 {
			panic("benchmark: fault-free burst lost items")
		}
	})
	line := map[int]int{0: 1, 1: 1, 2: 1, 3: 1}
	both("fabric.line_fetch_host_ns", 5000, 1, func(i int) { f.LineFetch(p, line, 4096, uint64(4*i)) })
}

func (r *layerRun) simDrivers() {
	const calls = 1 << 18
	var res sim.Resource
	occupy := func(n int) {
		p := &sim.Proc{}
		for i := 0; i < n; i++ {
			res.Occupy(p, 100)
		}
	}
	h, _ := r.batches("sim.resource_occupy_host_ns", 5, calls, func() (time.Duration, sim.Time) {
		t0 := time.Now()
		occupy(calls)
		return time.Since(t0), 0
	})
	r.set("sim.resource_occupy_host_ns", h)
	h, _ = r.batches("sim.resource_occupy_contended_host_ns", 5, calls, func() (time.Duration, sim.Time) {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				occupy(calls / 2)
			}()
		}
		wg.Wait()
		return time.Since(t0), 0
	})
	r.set("sim.resource_occupy_contended_host_ns", h)
}

// barrier measures 4x4 barrier episodes on c; each batch is one launch.
func barrier(r *layerRun, metric string, c *core.Cluster) (hostUs, virtNs float64) {
	const episodes = 200
	h, v := r.batches(metric, 3, episodes, func() (time.Duration, sim.Time) {
		t0 := time.Now()
		makespan := c.Run(benchTPN, func(th *core.Thread) {
			for i := 0; i < episodes; i++ {
				th.Barrier()
			}
		})
		return time.Since(t0), makespan
	})
	return h / 1e3, v
}

func (r *layerRun) velaDrivers() {
	h, v := barrier(r, "vela.barrier_host_us", newCluster())
	r.set("vela.barrier_host_us", h)
	r.set("vela.barrier_virt_ns", v)

	const trips = 100
	c := newCluster()
	h, _ = r.batches("vela.flag_roundtrip_host_us", 3, trips, func() (time.Duration, sim.Time) {
		// Flags are one-shot, so a batch gets its own.
		ping := make([]*vela.Flag, trips)
		pong := make([]*vela.Flag, trips)
		for i := range ping {
			ping[i], pong[i] = vela.NewFlag(c, 0), vela.NewFlag(c, 1)
		}
		t0 := time.Now()
		c.Run(1, func(th *core.Thread) {
			for i := 0; i < trips; i++ {
				switch th.Rank {
				case 0:
					ping[i].Signal(th)
					pong[i].Wait(th)
				case 1:
					ping[i].Wait(th)
					pong[i].Signal(th)
				}
			}
		})
		return time.Since(t0), 0
	})
	r.set("vela.flag_roundtrip_host_us", h/1e3)
}

// section measures one lock discipline: 16 threads each run perThread
// critical sections that bump one shared word; the total is checked.
func (r *layerRun) section(metric string, perThread int, enter func(c *core.Cluster) func(th *core.Thread, cs func(h *core.Thread))) (host, virt float64) {
	total := benchNodes * benchTPN * perThread
	return r.batches(metric, 3, total, func() (time.Duration, sim.Time) {
		c := newCluster()
		cnt := c.AllocI64(1)
		do := enter(c)
		bump := func(h *core.Thread) { h.SetI64(cnt, 0, h.GetI64(cnt, 0)+1) }
		t0 := time.Now()
		makespan := c.Run(benchTPN, func(th *core.Thread) {
			for i := 0; i < perThread; i++ {
				do(th, bump)
			}
			th.Barrier()
		})
		dt := time.Since(t0)
		if got := c.DumpI64(cnt)[0]; got != int64(total) {
			r.fail(metric, "%d critical sections counted %d", total, got)
		}
		return dt, makespan
	})
}

func plainLock(mk func(c *core.Cluster) locks.DSMLock) func(c *core.Cluster) func(*core.Thread, func(*core.Thread)) {
	return func(c *core.Cluster) func(*core.Thread, func(*core.Thread)) {
		l := mk(c)
		return func(th *core.Thread, cs func(*core.Thread)) {
			l.Lock(th)
			cs(th)
			l.Unlock(th)
		}
	}
}

func (r *layerRun) lockDrivers() {
	h, v := r.section("locks.hqdl_delegate_host_ns", 1000, func(c *core.Cluster) func(*core.Thread, func(*core.Thread)) {
		return locks.NewHQDLock(c).Delegate
	})
	r.set("locks.hqdl_delegate_host_ns", h)
	r.set("locks.hqdl_cs_virt_ns", v)
	h, _ = r.section("locks.hqdl_delegate_wait_host_ns", 1000, func(c *core.Cluster) func(*core.Thread, func(*core.Thread)) {
		return locks.NewHQDLock(c).DelegateWait
	})
	r.set("locks.hqdl_delegate_wait_host_ns", h)
	h, v = r.section("locks.mutex_cs_host_ns", 50, plainLock(func(c *core.Cluster) locks.DSMLock { return locks.NewDSMMutex(c, 0) }))
	r.set("locks.mutex_cs_host_ns", h)
	r.set("locks.mutex_cs_virt_ns", v)
	h, _ = r.section("locks.cohort_cs_host_ns", 50, plainLock(func(c *core.Cluster) locks.DSMLock { return locks.NewDSMCohortLock(c) }))
	r.set("locks.cohort_cs_host_ns", h)
}

func (r *layerRun) coreDrivers() {
	var c *core.Cluster
	h, _ := r.batches("core.new_cluster_host_ms", 5, 1, func() (time.Duration, sim.Time) {
		t0 := time.Now()
		c = newCluster()
		return time.Since(t0), 0
	})
	r.set("core.new_cluster_host_ms", h/1e6)
	const launches = 50
	h, _ = r.batches("core.launch_host_us", 3, launches, func() (time.Duration, sim.Time) {
		t0 := time.Now()
		for i := 0; i < launches; i++ {
			c.Run(benchTPN, func(*core.Thread) {})
		}
		return time.Since(t0), 0
	})
	r.set("core.launch_host_us", h/1e3)
	const words = 4 << 20 / 8
	xs := c.AllocF64(words)
	vals := make([]float64, words)
	for i := range vals {
		vals[i] = float64(i)
	}
	kb := func(metric string, f func()) {
		h, _ := r.batches(metric, 5, 1, func() (time.Duration, sim.Time) {
			t0 := time.Now()
			f()
			return time.Since(t0), 0
		})
		r.set(metric, h/(words*8/1024))
	}
	kb("core.init_host_ns_per_kb", func() { c.InitF64(xs, vals) })
	kb("core.dump_host_ns_per_kb", func() { sink += c.DumpF64(xs)[words-1] })
}

func (r *layerRun) probeDrivers() {
	attached := func() *core.Cluster {
		c, err := argo.NewCluster(argoCfg(), argo.WithMetrics(argo.NewMetrics()),
			argo.WithTracer(argo.NewTracer(0)), argo.WithSpans(argo.NewSpanRecorder(0)))
		if err != nil {
			panic(err)
		}
		return c
	}
	readHit(r, "probes.read_hit_attached_host_ns", attached())
	h, _ := barrier(r, "probes.barrier_attached_host_us", attached())
	r.set("probes.barrier_attached_host_us", h)
}

// driverRounds is how often the whole driver suite runs. A noisy stretch on
// a shared box outlasts one driver's batches, so the batches' median alone
// does not steady a unit cost; rounds a few seconds apart do.
const driverRounds = 3

// runLayerDrivers measures every unit cost driverRounds times and reports
// the median round.
func runLayerDrivers(tr *tracer) (map[string]value, []string) {
	rounds := make(map[string][]float64)
	var errs []string
	for i := 0; i < driverRounds; i++ {
		r := &layerRun{tr: tr, out: make(map[string]value)}
		r.layer("cache", r.cacheDrivers)
		r.layer("coherence", func() {
			r.missDrivers()
			r.bulkDrivers()
			r.fenceDrivers()
		})
		r.layer("mem", r.memDrivers)
		r.layer("directory", r.directoryDrivers)
		r.layer("fabric", r.fabricDrivers)
		r.layer("sim", r.simDrivers)
		r.layer("vela", r.velaDrivers)
		r.layer("locks", r.lockDrivers)
		r.layer("core", r.coreDrivers)
		r.layer("probes", r.probeDrivers)
		for name, v := range r.out {
			rounds[name] = append(rounds[name], v.Value)
		}
		errs = append(errs, r.errs...)
	}
	out := make(map[string]value, len(rounds))
	for name, vs := range rounds {
		out[name] = value{Value: median(vs), Unit: unitOf(name)}
	}
	return out, errs
}
