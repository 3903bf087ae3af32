package harness

import (
	"fmt"
	"io"

	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/mem"
	"argo/internal/sim"
	"argo/internal/workloads/blackscholes"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/ep"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/mm"
	"argo/internal/workloads/nbody"
	"argo/internal/workloads/wload"
)

func init() {
	register("fig7", "Figure 7: read bandwidth, Argo cache-line fetch vs raw one-sided RMA", unchecked(fig7))
	register("fig8", "Figure 8: classification impact (S, P/S, P/S3) on execution time", fig8)
	register("fig9", "Figure 9: runtime vs write-buffer size", fig9)
	register("fig10", "Figure 10: writebacks vs write-buffer size", fig10)
}

// fig7 measures the achievable read bandwidth of an Argo line fetch against
// a raw one-sided read of the same size (the MPI-RMA curve of the paper).
func fig7(w io.Writer, quick bool) {
	sizes := []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	if quick {
		sizes = sizes[:5]
	}
	mbps := func(bytes int, t sim.Time) float64 {
		if t <= 0 {
			return 0
		}
		return float64(bytes) / float64(t) * 1000 // bytes/ns -> MB/s
	}
	var rows [][]string
	for _, size := range sizes {
		pages := size / 4096

		// Raw one-sided read (the MPI-RMA passive target curve).
		fab := wload.NewFabric(2)
		p := &sim.Proc{Node: 0}
		fab.RemoteRead(p, 1, size, 0)
		rawBW := mbps(size, p.Now())

		// Argo: one cache-line fetch of the same footprint, including the
		// per-page directory registrations.
		cfg := wload.ArgoConfig(2, int64(8*size)+(4<<20))
		cfg.Policy = mem.Blocked
		cfg.PagesPerLine = pages
		cfg.CacheLines = 64
		c := wload.MustCluster(cfg)
		// Skip the allocator past node 0's home block so the probe array
		// is homed entirely at node 1.
		half := c.Space.Capacity() / 2
		c.AllocPages(half)
		arr := c.AllocF64(size / 8)
		var lineTime sim.Time
		c.Run(1, func(th *core.Thread) {
			if th.Node != 0 {
				return
			}
			const lines = 4
			t0 := th.P.Now()
			for l := 0; l < lines; l++ {
				// Touch the first element of each line: the whole line is
				// fetched (prefetch).
				th.GetF64(arr, l*pages*512)
			}
			lineTime = (th.P.Now() - t0) / lines
		})
		c.Close() // the next size's cluster takes its frames
		rows = append(rows, []string{
			fmt.Sprintf("%d", size),
			f1(mbps(size, lineTime)),
			f1(rawBW),
		})
	}
	Table(w, "Read bandwidth vs transfer size", []string{"Bytes", "Argo MB/s", "RMA MB/s"}, rows)
	fmt.Fprintln(w, "Argo tracks the raw one-sided transfer rate as the line size grows (Fig. 7),")
	fmt.Fprintln(w, "paying a small per-page toll for the passive directory registrations.")
}

// sweepBench is one of the six benchmarks of Figures 8-10, with the paper's
// chosen write-buffer size and sweep-scale inputs.
type sweepBench struct {
	name   string
	wb     int // write-buffer pages chosen in §5.2
	run    func(cfg core.Config, tpn int) wload.Result
	serial func() wload.Result // the same input on one thread: the reference answer
}

func sweepBenches(quick bool) []sweepBench {
	scale, luN, mmN := 1, 96, 192
	if quick {
		scale, luN, mmN = 4, 64, 48
	}
	bsP := blackscholes.Params{Options: 32768 / scale, Iters: 3}
	cgP := cg.Params{N: 4096 / scale, PerRow: 12, Iters: 4}
	epP := ep.Params{Chunks: 1024 / scale, PairsPerChunk: 128}
	luP := lu.Params{N: luN, Block: 16}
	mmP := mm.Params{N: mmN}
	nbP := nbody.Params{Bodies: 512 / scale, Steps: 3}
	return []sweepBench{
		{"Blackscholes", 8192,
			func(cfg core.Config, tpn int) wload.Result { return blackscholes.RunArgo(cfg, bsP, tpn) },
			func() wload.Result { return blackscholes.RunSerial(bsP) }},
		{"CG", 256,
			func(cfg core.Config, tpn int) wload.Result { return cg.RunArgo(cfg, cgP, tpn) },
			func() wload.Result { return cg.RunSerial(cgP) }},
		{"EP", 32,
			func(cfg core.Config, tpn int) wload.Result { return ep.RunArgo(cfg, epP, tpn) },
			func() wload.Result { return ep.RunSerial(epP) }},
		{"LU", 8192,
			func(cfg core.Config, tpn int) wload.Result { return lu.RunArgo(cfg, luP, tpn) },
			func() wload.Result { return lu.RunSerial(luP) }},
		{"MM", 128,
			func(cfg core.Config, tpn int) wload.Result { return mm.RunArgo(cfg, mmP, tpn) },
			func() wload.Result { return mm.RunSerial(mmP) }},
		{"Nbody", 8192,
			func(cfg core.Config, tpn int) wload.Result { return nbody.RunArgo(cfg, nbP, tpn) },
			func() wload.Result { return nbody.RunSerial(nbP) }},
	}
}

func sweepConfig(quick bool) (nodes, tpn int) {
	if quick {
		return 2, 2
	}
	return 4, 15 // the paper's Figure 8 setup: 4 nodes, 15 threads/node
}

// fig8 compares the three classification modes, normalized to S.
func fig8(w io.Writer, quick bool) error {
	nodes, tpn := sweepConfig(quick)
	modes := []coherenceMode{
		{"S", coherence.ModeS},
		{"PS", coherence.ModePS},
		{"PS3", coherence.ModePS3},
	}
	var rows [][]string
	var bad badCells
	avg := make([]float64, len(modes))
	benches := sweepBenches(quick)
	for _, b := range benches {
		ref := b.serial().Check
		res := make([]wload.Result, len(modes))
		for mi, m := range modes {
			cfg := wload.ArgoConfig(nodes, 64<<20)
			cfg.WriteBufferPages = b.wb
			cfg.Mode = m.mode
			res[mi] = b.run(cfg, tpn)
		}
		row := []string{b.name}
		for mi, r := range res {
			norm := float64(r.Time) / float64(res[0].Time)
			avg[mi] += norm
			row = append(row, bad.cell(f3(norm), r.Check, ref, b.name, fmt.Sprintf("mode %s, %d nodes", modes[mi].name, nodes)))
		}
		rows = append(rows, row)
	}
	row := []string{"Average"}
	for _, a := range avg {
		row = append(row, f3(a/float64(len(benches))))
	}
	rows = append(rows, row)
	Table(w, fmt.Sprintf("Execution time normalized to S (%d nodes, %d threads/node)", nodes, tpn),
		[]string{"Benchmark", "S", "PS", "PS3"}, rows)
	return bad.err()
}

type coherenceMode struct {
	name string
	mode coherence.Mode
}

func wbSizes(quick bool) []int {
	if quick {
		return []int{8, 128, 2048, 32768}
	}
	return []int{8, 32, 128, 512, 2048, 8192, 32768}
}

// wbSweep runs every benchmark at every write-buffer size and prints one
// table of what show makes of each run, a row per size.
func wbSweep(w io.Writer, quick bool, title string, show func(wload.Result) string) error {
	nodes, tpn := sweepConfig(quick)
	sizes := wbSizes(quick)
	headers := []string{"WB pages"}
	rows := make([][]string, len(sizes))
	for si, wb := range sizes {
		rows[si] = []string{d(int64(wb))}
	}
	var bad badCells
	for _, b := range sweepBenches(quick) {
		headers = append(headers, b.name)
		ref := b.serial().Check
		for si, wb := range sizes {
			cfg := wload.ArgoConfig(nodes, 64<<20)
			cfg.WriteBufferPages = wb
			r := b.run(cfg, tpn)
			rows[si] = append(rows[si], bad.cell(show(r), r.Check, ref, b.name, fmt.Sprintf("%d write-buffer pages, %d nodes", wb, nodes)))
		}
	}
	Table(w, title, headers, rows)
	return bad.err()
}

func fig9(w io.Writer, quick bool) error {
	return wbSweep(w, quick, "Runtime (virtual ms) vs write-buffer size",
		func(r wload.Result) string { return f2(float64(r.Time) / 1e6) })
}

func fig10(w io.Writer, quick bool) error {
	return wbSweep(w, quick, "Writebacks vs write-buffer size",
		func(r wload.Result) string { return d(r.Stats.Writebacks) })
}
