// Wordhisto: a distributed letter-frequency histogram over a synthetic
// corpus stored in global memory.
//
// The map phase reads disjoint slices of the corpus (private pages — never
// self-invalidated under P/S3) and accumulates into per-thread histogram
// rows; after a barrier, node representatives combine rows. Shows raw byte
// access (ReadBytes), I64 slices, InitDone, and how to attribute costs with
// Compute.
//
//	go run ./examples/wordhisto
package main

import (
	"fmt"

	"argo"
)

const (
	corpusBytes = 1 << 20
	letters     = 26
)

func main() {
	cfg := argo.DefaultConfig(4)
	cfg.MemoryBytes = 8 << 20
	cluster := argo.MustNewCluster(cfg)
	defer cluster.Close()

	corpus := cluster.AllocPages(corpusBytes)
	text := make([]byte, corpusBytes)
	state := uint32(2463534242)
	for i := range text {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		text[i] = 'a' + byte(state%letters)
	}
	cluster.InitBytes(corpus, text)

	const tpn = 8
	nt := cfg.Nodes * tpn
	rows := cluster.AllocI64(nt * letters)
	total := cluster.AllocI64(letters)

	cluster.Run(tpn, func(t *argo.Thread) {
		lo := t.Rank * corpusBytes / t.NT
		hi := (t.Rank + 1) * corpusBytes / t.NT
		chunk := make([]byte, hi-lo)
		t.ReadBytes(corpus+int64(lo), chunk)
		var counts [letters]int64
		for _, b := range chunk {
			counts[b-'a']++
		}
		t.Compute(int64(len(chunk))) // 1 ns per byte scanned
		t.WriteI64s(rows, t.Rank*letters, counts[:])

		t.Barrier()

		if t.Rank == 0 {
			all := make([]int64, nt*letters)
			t.ReadI64s(rows, 0, nt*letters, all)
			var sum [letters]int64
			for r := 0; r < nt; r++ {
				for l := 0; l < letters; l++ {
					sum[l] += all[r*letters+l]
				}
			}
			t.WriteI64s(total, 0, sum[:])
		}
		t.Barrier()
	})

	got := cluster.DumpI64(total)
	// Verify against a host-side count.
	var want [letters]int64
	for _, b := range text {
		want[b-'a']++
	}
	var grand int64
	for l := 0; l < letters; l++ {
		if got[l] != want[l] {
			fmt.Printf("MISMATCH %c: %d vs %d\n", 'a'+l, got[l], want[l])
			return
		}
		grand += got[l]
	}
	fmt.Printf("histogram over %d bytes on %d threads verified (total %d)\n", corpusBytes, nt, grand)
	for l := 0; l < 6; l++ {
		fmt.Printf("  %c: %d\n", 'a'+l, got[l])
	}
	fmt.Println("  ...")
}
