// Recycled frames are invisible across live clusters: a page frame one
// cluster hands back is taken by another that is running, and no answer may
// depend on it. (internal/mem's TestFramesRecycledArePoisonProof runs each
// ledger runner from fresh and from poisoned frames.)
package argo_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"argo/internal/coherence"
	"argo/internal/mem"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

// TestFramesMigrateBetweenLiveClusters: four goroutines build, run, check and
// close clusters of four runner families at once, so a frame one cluster
// closes is taken by another that is running. Every answer must equal the
// one the same call gave alone. Run under -race: a frame reused without a
// happens-before edge from its last user is a report.
func TestFramesMigrateBetweenLiveClusters(t *testing.T) {
	calls := []func() string{
		func() string {
			r := lu.RunArgo(wload.ArgoConfig(2, 8<<20), lu.Params{N: 128, Block: 32}, 2)
			return fmt.Sprintf("lu %x", math.Float64bits(r.Check))
		},
		func() string {
			r := cg.RunArgo(wload.ArgoConfig(2, 8<<20), cg.Params{N: 2048, PerRow: 8, Iters: 3}, 2)
			return fmt.Sprintf("cg %x", math.Float64bits(r.Check))
		},
		func() string {
			r, err := drf.RunReport(drf.Params{
				Seed: 7, Nodes: 2, TPN: 2, Elements: 4096, Epochs: 3, Reads: 64,
				PageSize: 1024, CacheLine: 8, PerLine: 2, WBPages: 8,
				Mode: coherence.ModePS3, Policy: mem.Interleaved,
			})
			if err != nil {
				return err.Error()
			}
			return fmt.Sprintf("drf %x", r.Digest)
		},
		func() string {
			r := pqbench.RunDSM(pqbench.DSMMutex, wload.ArgoConfig(2, 8<<20), 2, pqbench.Params{OpsPerThread: 40, WorkUnits: 8, Preload: 64})
			return fmt.Sprintf("pq %d", r.Ops)
		},
	}
	want := make([]string, len(calls))
	for i, call := range calls {
		want[i] = call()
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(calls)
				if got := calls[i](); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d round %d: %s, alone %s", g, r, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
