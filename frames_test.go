// Recycled frames are invisible: a page frame a closed cluster handed back
// (home page, cached copy or twin) carries its last user's bytes into the
// next cluster that takes it, and nothing any runner reports may depend on
// them. The differential test fills the pool with poison before every runner
// call; the race test makes frames move between clusters that are running at
// the same time.
package argo_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

// poison is the byte every frame of the pool holds after poisonFrames.
const poison = 0xA5

// emptyFramePool frees every frame in the pool: a frame nobody takes
// survives one collection in the pool's victim cache and no more.
func emptyFramePool() {
	runtime.GC()
	runtime.GC()
}

// poisonFrames hands the pool at least frames page frames that hold poison
// in every byte. A throwaway two-node cluster initialises its pages to
// poison, every node then writes poison over every page — a read miss
// fetches it into a cache frame, the write miss snapshots it into a twin
// frame — and releases; closing the cluster puts home, cache and twin frames
// back, each of them all poison.
func poisonFrames(t *testing.T, frames int) {
	t.Helper()
	const nodes = 2
	cfg := wload.ArgoConfig(nodes, 0)
	pages := (frames + 2*nodes) / (1 + 2*nodes) // a home frame, and a copy and a twin per node
	if pages > cfg.CacheLines*cfg.PagesPerLine {
		t.Fatalf("poisoning %d frames needs %d pages, more than a node caches", frames, pages)
	}
	ps := cfg.PageSize
	cfg.MemoryBytes = int64(pages * ps)
	c := wload.MustCluster(cfg)
	base := c.AllocPages(cfg.MemoryBytes)
	page := bytes.Repeat([]byte{poison}, ps)
	for pg := 0; pg < pages; pg++ {
		c.InitBytes(base+mem.Addr(pg*ps), page)
	}
	c.Run(1, func(th *core.Thread) {
		for pg := 0; pg < pages; pg++ {
			th.WriteBytes(base+mem.Addr(pg*ps), page)
		}
		th.ReleaseFence()
	})
	if s := c.Stats(); s.WriteMisses != int64(nodes*pages) {
		t.Fatalf("poisoning took %d write misses, want %d twins", s.WriteMisses, nodes*pages)
	}
	c.Close()
}

// runnerFacts are the six ledger runner calls, at sizes that keep two runs
// of each short, reduced to what must not depend on a frame's history: the
// answer, the write-side counters and the membership decisions. Of the
// makespans only pq_mutex's replays, and only on one host thread: cg's varies
// in its last digits even there (DESIGN §20's census).
var runnerFacts = []struct {
	name            string
	makespanReplays bool
	run             func(t *testing.T) (facts []string, makespan int64)
}{
	{"lu", false, func(*testing.T) ([]string, int64) {
		r := lu.RunArgo(wload.ArgoConfig(4, 64<<20), lu.Params{N: 384, Block: 32}, 4)
		return writeSideFacts(r), int64(r.Time)
	}},
	{"cg", false, func(*testing.T) ([]string, int64) {
		r := cg.RunArgo(wload.ArgoConfig(4, 64<<20), cg.Params{N: 16384, PerRow: 16, Iters: 8}, 4)
		return writeSideFacts(r), int64(r.Time)
	}},
	{"drf", false, func(t *testing.T) ([]string, int64) {
		r, err := drf.RunReport(drf.Params{
			Seed: 42, Nodes: 4, TPN: 4, Elements: 32768, Epochs: 4, Reads: 512,
			PageSize: 4096, CacheLine: 64, PerLine: 2, WBPages: 64,
			Mode: coherence.ModePS3, Policy: mem.Interleaved,
		})
		if err != nil {
			t.Fatal(err)
		}
		return []string{fmt.Sprintf("digest %x", r.Digest)}, int64(r.Makespan)
	}},
	{"pq_hqdl", false, func(*testing.T) ([]string, int64) {
		r := pqbench.RunDSM(pqbench.DSMHQDL, wload.ArgoConfig(4, 64<<20), 4, pqbench.Params{OpsPerThread: 1000, WorkUnits: 48, Preload: 512})
		return []string{fmt.Sprintf("ops %d", r.Ops)}, int64(r.Time)
	}},
	{"pq_mutex", true, func(*testing.T) ([]string, int64) {
		r := pqbench.RunDSM(pqbench.DSMMutex, wload.ArgoConfig(4, 64<<20), 4, pqbench.Params{OpsPerThread: 200, WorkUnits: 48, Preload: 512})
		return []string{fmt.Sprintf("ops %d", r.Ops)}, int64(r.Time)
	}},
	{"lu_chaos", false, func(t *testing.T) ([]string, int64) {
		plan, err := fault.ParsePlan(luChaosSpec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := lu.RunCrash(lu.CrashParams{Params: lu.Params{N: 384, Block: 32}, Nodes: 6, Faults: &plan})
		if err != nil {
			t.Fatal(err)
		}
		// Two crashes of one episode enter the history in host arrival
		// order, so only its sorted form repeats.
		decisions := strings.Fields(r.History)
		sort.Strings(decisions)
		return []string{
			fmt.Sprintf("digest %x", r.Digest), fmt.Sprintf("epoch %d", r.Epoch),
			fmt.Sprintf("deaths %d", r.Deaths), fmt.Sprintf("suspects %d", r.Partitions),
			"decisions " + strings.Join(decisions, " "),
		}, int64(r.Makespan)
	}},
}

// writeSideFacts are a barrier workload's checksum bits and write-side counters.
func writeSideFacts(r wload.Result) []string {
	s := r.Stats
	return []string{
		fmt.Sprintf("checksum %x", math.Float64bits(r.Check)),
		fmt.Sprintf("write misses %d", s.WriteMisses), fmt.Sprintf("writebacks %d", s.Writebacks),
		fmt.Sprintf("writeback bytes %d", s.WritebackBytes),
		fmt.Sprintf("SI fences %d", s.SIFences), fmt.Sprintf("SD fences %d", s.SDFences),
	}
}

// TestFramesRecycledArePoisonProof runs each runner call first from an empty
// pool, where every frame is fresh and zero, then from a pool holding more
// poisoned frames than that run allocated bytes, and requires the same
// facts — and, on one host thread, the same makespan where it replays.
func TestFramesRecycledArePoisonProof(t *testing.T) {
	for _, rc := range runnerFacts {
		t.Run(rc.name, func(t *testing.T) {
			emptyFramePool()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			clean, cleanSpan := rc.run(t)
			runtime.ReadMemStats(&m1)
			// Every frame the clean run took was made for it, so its
			// allocation bounds the frames the second run can ask for.
			poisonFrames(t, int((m1.TotalAlloc-m0.TotalAlloc)/4096)+1)
			got, span := rc.run(t)
			if strings.Join(got, "\n") != strings.Join(clean, "\n") {
				t.Fatalf("from poisoned frames:\n  %s\nfrom fresh frames:\n  %s", strings.Join(got, "\n  "), strings.Join(clean, "\n  "))
			}
			if rc.makespanReplays && runtime.GOMAXPROCS(0) == 1 && span != cleanSpan {
				t.Fatalf("makespan %d from poisoned frames, %d from fresh ones", span, cleanSpan)
			}
		})
	}
}

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
