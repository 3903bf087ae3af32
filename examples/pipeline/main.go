// Pipeline: a three-stage software pipeline across nodes, synchronized
// with Vela signal/wait flags instead of barriers.
//
// Stage 0 (node 0) produces blocks of samples, stage 1 (node 1) filters
// them, stage 2 (node 2) accumulates statistics. Each stage hands a block
// to the next with one flag: Signal carries release semantics (the node
// self-downgrades), Wait carries acquire semantics (the receiver
// self-invalidates) — the paper's point that any synchronization, once
// exposed to Carina, orders the data race for free. Only the nodes that
// synchronize pay fences; the others keep computing.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"math"

	"argo"
	"argo/internal/vela"
)

const (
	blocks    = 16
	blockSize = 4096
)

func main() {
	cfg := argo.DefaultConfig(3)
	cfg.MemoryBytes = 16 << 20
	cluster := argo.MustNewCluster(cfg)
	defer cluster.Close()

	raw := cluster.AllocF64(blocks * blockSize)      // stage 0 → 1
	filtered := cluster.AllocF64(blocks * blockSize) // stage 1 → 2
	result := cluster.AllocF64(2)                    // stage 2 output

	// One flag per block per hop.
	hop1 := make([]*vela.Flag, blocks)
	hop2 := make([]*vela.Flag, blocks)
	for b := range hop1 {
		hop1[b] = argo.NewFlag(cluster, 1)
		hop2[b] = argo.NewFlag(cluster, 2)
	}

	makespan := cluster.Run(1, func(t *argo.Thread) {
		switch t.Node {
		case 0: // producer
			buf := make([]float64, blockSize)
			for b := 0; b < blocks; b++ {
				for i := range buf {
					buf[i] = math.Sin(float64(b*blockSize+i) * 0.01)
				}
				t.Compute(blockSize * 5)
				t.WriteF64s(raw, b*blockSize, buf)
				hop1[b].Signal(t)
			}
		case 1: // filter: 3-point moving average
			in := make([]float64, blockSize)
			out := make([]float64, blockSize)
			for b := 0; b < blocks; b++ {
				hop1[b].Wait(t)
				t.ReadF64s(raw, b*blockSize, (b+1)*blockSize, in)
				for i := range out {
					lo, hi := max(0, i-1), min(blockSize-1, i+1)
					out[i] = (in[lo] + in[i] + in[hi]) / 3
				}
				t.Compute(blockSize * 8)
				t.WriteF64s(filtered, b*blockSize, out)
				hop2[b].Signal(t)
			}
		case 2: // accumulator
			in := make([]float64, blockSize)
			var sum, sumSq float64
			for b := 0; b < blocks; b++ {
				hop2[b].Wait(t)
				t.ReadF64s(filtered, b*blockSize, (b+1)*blockSize, in)
				for _, v := range in {
					sum += v
					sumSq += v * v
				}
				t.Compute(blockSize * 4)
			}
			t.WriteF64s(result, 0, []float64{sum, sumSq})
			t.ReleaseFence() // publish the final block of results
		}
	})

	out := cluster.DumpF64(result)
	n := float64(blocks * blockSize)
	mean := out[0] / n
	rms := math.Sqrt(out[1] / n)
	fmt.Printf("pipeline: %d blocks × %d samples in %.3f virtual ms\n",
		blocks, blockSize, float64(makespan)/1e6)
	fmt.Printf("mean %.6f (≈0 for a sine), rms %.4f (≈0.707 for a sine)\n", mean, rms)
	if math.Abs(mean) > 0.01 || math.Abs(rms-1/math.Sqrt2) > 0.01 {
		fmt.Println("FAILED: statistics off — a stage observed stale data")
		return
	}
	s := cluster.Stats()
	fmt.Printf("fences: %d SI / %d SD (one pair per flag handoff, not per access)\n",
		s.SIFences, s.SDFences)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
