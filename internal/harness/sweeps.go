package harness

import (
	"fmt"

	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/mem"
	"argo/internal/sim"
	"argo/internal/workloads/wload"
)

func init() {
	register("fig7", "Figure 7: read bandwidth, Argo cache-line fetch vs raw one-sided RMA", fig7)
	register("fig8", "Figure 8: classification impact (S, P/S, P/S3) on execution time", fig8)
	register("fig9-10", "Figures 9 and 10: runtime and writebacks vs write-buffer size", fig9and10)
}

// fig7 measures the achievable read bandwidth of an Argo line fetch against
// a raw one-sided read of the same size (the MPI-RMA curve of the paper).
func fig7(quick bool) ([]Table, error) {
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
	return []Table{{Title: "Read bandwidth vs transfer size", Headers: []string{"Bytes", "Argo MB/s", "RMA MB/s"}, Rows: rows,
		Note: "Argo tracks the raw one-sided transfer rate as the line size grows (Fig. 7),\n" +
			"paying a small per-page toll for the passive directory registrations."}}, nil
}

func sweepConfig(quick bool) (nodes, tpn int) {
	if quick {
		return 2, 2
	}
	return 4, 15 // the paper's Figure 8 setup: 4 nodes, 15 threads/node
}

// fig8 compares the three classification modes, normalized to S.
func fig8(quick bool) ([]Table, error) {
	nodes, tpn := sweepConfig(quick)
	modes := []coherence.Mode{coherence.ModeS, coherence.ModePS, coherence.ModePS3}
	headers := []string{"Benchmark", "S", "PS", "PS3"}
	var rows [][]string
	var bad badCells
	avg := make([]float64, len(modes))
	for _, k := range kernels {
		in := k.sweep.at(quick)
		row := []string{k.label}
		var s sim.Time
		for mi, m := range modes {
			cfg := wload.ArgoConfig(nodes, 64<<20)
			cfg.WriteBufferPages = k.wb
			cfg.Mode = m
			r, err := k.argo(in, cfg, tpn, "mode "+m.String())
			if mi == 0 {
				s = r.Time
			}
			norm := float64(r.Time) / float64(s)
			avg[mi] += norm
			row = append(row, bad.cell(f3(norm), err))
		}
		rows = append(rows, row)
	}
	row := []string{"Average"}
	for _, a := range avg {
		row = append(row, f3(a/float64(len(kernels))))
	}
	rows = append(rows, row)
	return []Table{{Title: fmt.Sprintf("Execution time normalized to S (%d nodes, %d threads/node)", nodes, tpn),
		Headers: headers, Rows: rows}}, bad.err()
}

func wbSizes(quick bool) []int {
	if quick {
		return []int{8, 128, 2048, 32768}
	}
	return []int{8, 32, 128, 512, 2048, 8192, 32768}
}

// fig9and10 runs every benchmark once at every write-buffer size and fills
// both figures from that one run: runtime (Figure 9) and writebacks (Figure
// 10), a row per size and a column per benchmark.
func fig9and10(quick bool) ([]Table, error) {
	nodes, tpn := sweepConfig(quick)
	wbs := wbSizes(quick)
	headers := []string{"WB pages"}
	times := make([][]string, len(wbs))
	writebacks := make([][]string, len(wbs))
	for si, wb := range wbs {
		times[si] = []string{d(int64(wb))}
		writebacks[si] = []string{d(int64(wb))}
	}
	var bad badCells
	for _, k := range kernels {
		headers = append(headers, k.label)
		in := k.sweep.at(quick)
		for si, wb := range wbs {
			cfg := wload.ArgoConfig(nodes, 64<<20)
			cfg.WriteBufferPages = wb
			r, err := k.argo(in, cfg, tpn, fmt.Sprintf("%d write-buffer pages", wb))
			ms, n := bad.cell(f2(float64(r.Time)/1e6), err), d(r.Stats.Writebacks)
			if err != nil {
				n = "BADCHECK"
			}
			times[si] = append(times[si], ms)
			writebacks[si] = append(writebacks[si], n)
		}
	}
	return []Table{
		{Title: "Runtime (virtual ms) vs write-buffer size", Headers: headers, Rows: times},
		{Title: "Writebacks vs write-buffer size", Headers: headers, Rows: writebacks},
	}, bad.err()
}
