// Stencil: a 1-D heat-diffusion solver with domain decomposition.
//
// Each thread owns a contiguous block of the rod and needs only its
// neighbours' boundary cells each step — the halo pages are single-writer
// (S,SW) under Pyxis, so producers keep them across barriers while the
// neighbouring consumers refetch exactly the pages that changed. The run
// prints the protocol counters so the classification's work is visible,
// and verifies the result against a serial solver.
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"math"
	"os"

	"argo"
)

const (
	cells = 1 << 14
	steps = 50
	alpha = 0.1
)

func serial() []float64 {
	cur := make([]float64, cells)
	next := make([]float64, cells)
	for i := range cur {
		cur[i] = initial(i)
	}
	for s := 0; s < steps; s++ {
		for i := 1; i < cells-1; i++ {
			next[i] = cur[i] + alpha*(cur[i-1]-2*cur[i]+cur[i+1])
		}
		next[0], next[cells-1] = cur[0], cur[cells-1]
		cur, next = next, cur
	}
	return cur
}

func initial(i int) float64 {
	return math.Sin(float64(i) * 0.001 * math.Pi)
}

func main() {
	cfg := argo.DefaultConfig(4)
	cfg.MemoryBytes = 8 << 20
	cluster := argo.MustNewCluster(cfg)
	defer cluster.Close()

	grids := [2]argo.F64Slice{cluster.AllocF64(cells), cluster.AllocF64(cells)}
	init := make([]float64, cells)
	for i := range init {
		init[i] = initial(i)
	}
	cluster.InitF64(grids[0], init)
	cluster.InitF64(grids[1], init)

	const tpn = 8
	makespan := cluster.Run(tpn, func(t *argo.Thread) {
		lo := t.Rank * cells / t.NT
		hi := (t.Rank + 1) * cells / t.NT
		if lo == 0 {
			lo = 1
		}
		if hi == cells {
			hi = cells - 1
		}
		buf := make([]float64, hi-lo+2)
		res := make([]float64, hi-lo)
		for s := 0; s < steps; s++ {
			src, dst := grids[s%2], grids[(s+1)%2]
			// Read the block plus one halo cell on each side.
			t.ReadF64s(src, lo-1, hi+1, buf)
			for i := 0; i < hi-lo; i++ {
				res[i] = buf[i+1] + alpha*(buf[i]-2*buf[i+1]+buf[i+2])
			}
			t.Compute(int64(hi-lo) * 4)
			t.WriteF64s(dst, lo, res)
			t.Barrier()
		}
	})

	got := cluster.DumpF64(grids[steps%2])
	want := serial()
	var maxErr float64
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > maxErr {
			maxErr = d
		}
	}
	fmt.Printf("stencil: %d cells × %d steps on 4 nodes, makespan %.3f ms\n",
		cells, steps, float64(makespan)/1e6)
	fmt.Printf("max |error| vs serial: %g\n", maxErr)
	if maxErr > 1e-12 {
		fmt.Println("FAILED: DSM result deviates from serial solver")
		os.Exit(1)
	}
	s := cluster.Stats()
	fmt.Printf("SI filtered %d pages, invalidated %d (halo traffic only)\n",
		s.SIFiltered, s.SelfInvalidations)
}
