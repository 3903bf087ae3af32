// Command argo-info prints the simulator's default configuration, the
// interconnect cost model, and the experiment catalog — a quick way to see
// what a cluster looks like before running benchmarks.
package main

import (
	"fmt"
	"os"

	"argo/internal/cli"
	"argo/internal/core"
	"argo/internal/fabric"
)

func main() {
	cfg := core.DefaultConfig(4)
	fmt.Println("Argo DSM simulator — default cluster configuration")
	fmt.Printf("  nodes:              %d (max 128)\n", cfg.Nodes)
	fmt.Printf("  sockets/node:       %d × %d cores (the paper's 2×Opteron 6220 node)\n",
		cfg.SocketsPerNode, cfg.CoresPerSocket)
	fmt.Printf("  global memory:      %d MiB, %d B pages, %s homes\n",
		cfg.MemoryBytes>>20, cfg.PageSize, cfg.Policy)
	fmt.Printf("  page cache:         %d lines × %d pages/line per node\n",
		cfg.CacheLines, cfg.PagesPerLine)
	fmt.Printf("  write buffer:       %d pages\n", cfg.WriteBufferPages)
	fmt.Printf("  classification:     %v\n", cfg.Mode)

	p := fabric.DefaultParams()
	fmt.Println("\nInterconnect cost model (virtual ns)")
	fmt.Printf("  remote latency:     %d (one-way, incl. one-sided MPI software path)\n", p.RemoteLatency)
	fmt.Printf("  wire:               %d ns/KB (≈ %.2f GB/s saturated)\n",
		p.NsPerKB, 1e9/float64(p.NsPerKB)/1e6/1024*1024/1000)
	fmt.Printf("  directory service:  %d\n", p.DirService)
	fmt.Printf("  DRAM latency:       %d\n", p.DRAMLatency)
	fmt.Printf("  cross-socket:       %d   same-socket: %d   cache hit: %d\n",
		p.SocketLatency, p.LocalLatency, p.CacheHit)
	fmt.Printf("  local copy:         %d ns/KB\n", p.MemCopyPerKB)

	fmt.Println("\nExperiments (argo-bench <id>)")
	cli.PrintExperiments(os.Stdout, "  ")
}
