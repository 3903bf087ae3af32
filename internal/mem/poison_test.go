// Recycled frames are invisible: a page frame a closed cluster handed back
// (home page, cached copy or twin) carries its last user's bytes into the
// next cluster that takes it, and nothing any ledger runner reports may
// depend on them. The test lives outside package mem so that it can run the
// runners, and inside its directory so that it can drop every frame handed
// back before its first arm.
package mem_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
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

// luChaosSpec is the perf ledger's lu_chaos plan (benchmark/workloads.go).
const luChaosSpec = "crash=0.03,crashrestart=on,partition=0.05,partdur=2,drop=0.01,seed=42"

// poison is the byte every frame handed back holds after poisonFrames.
const poison = 0xA5

// poisonFrames hands back at least frames page frames that hold poison
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
// answer, the write-side counters and the membership decisions. A makespan
// is a fact only where it is a function of the seed: pq_mutex's on one
// simulated thread, which its own call measures. With sixteen, host
// preemption reorders the threads even on one host thread, and cg's varies
// in its last digits (DESIGN §20's census); the other calls report 0.
var runnerFacts = []struct {
	name string
	run  func(t *testing.T) (facts []string, makespan int64)
}{
	{"lu", func(*testing.T) ([]string, int64) {
		r := lu.RunArgo(wload.ArgoConfig(4, 64<<20), lu.Params{N: 384, Block: 32}, 4)
		return writeSideFacts(r), 0
	}},
	{"cg", func(*testing.T) ([]string, int64) {
		r := cg.RunArgo(wload.ArgoConfig(4, 64<<20), cg.Params{N: 16384, PerRow: 16, Iters: 8}, 4)
		return writeSideFacts(r), 0
	}},
	{"drf", func(t *testing.T) ([]string, int64) {
		r, err := drf.RunReport(drf.Params{
			Seed: 42, Nodes: 4, TPN: 4, Elements: 32768, Epochs: 4, Reads: 512,
			PageSize: 4096, CacheLine: 64, PerLine: 2, WBPages: 64,
			Mode: coherence.ModePS3, Policy: mem.Interleaved,
		})
		if err != nil {
			t.Fatal(err)
		}
		return []string{fmt.Sprintf("digest %x", r.Digest)}, 0
	}},
	{"pq_hqdl", func(*testing.T) ([]string, int64) {
		r := pqbench.RunDSM(pqbench.DSMHQDL, wload.ArgoConfig(4, 64<<20), 4, pqbench.Params{OpsPerThread: 1000, WorkUnits: 48, Preload: 512})
		return []string{fmt.Sprintf("ops %d", r.Ops)}, 0
	}},
	{"pq_mutex", func(*testing.T) ([]string, int64) {
		pr := pqbench.Params{OpsPerThread: 200, WorkUnits: 48, Preload: 512}
		r := pqbench.RunDSM(pqbench.DSMMutex, wload.ArgoConfig(4, 64<<20), 4, pr)
		one := pqbench.RunDSM(pqbench.DSMMutex, wload.ArgoConfig(1, 64<<20), 1, pr)
		return []string{fmt.Sprintf("ops %d", r.Ops)}, int64(one.Time)
	}},
	{"lu_chaos", func(t *testing.T) ([]string, int64) {
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
		}, 0
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

// TestFramesRecycledArePoisonProof runs each runner call first with no frame
// handed back, so that every frame is fresh and zero, then with more poisoned
// frames handed back than that run allocated bytes, and requires the same
// facts and makespan.
func TestFramesRecycledArePoisonProof(t *testing.T) {
	for _, rc := range runnerFacts {
		t.Run(rc.name, func(t *testing.T) {
			mem.EmptyFrames()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			clean, cleanSpan := rc.run(t)
			runtime.ReadMemStats(&m1)
			// Every frame the clean run took was made for it, so its
			// allocation bounds the frames the second run can ask for.
			frames := int((m1.TotalAlloc - m0.TotalAlloc) / 4096)
			if frames < 3 {
				t.Fatalf("the clean run allocated %d bytes, less than three frames: it took none to recycle", m1.TotalAlloc-m0.TotalAlloc)
			}
			poisonFrames(t, frames+1)
			got, span := rc.run(t)
			if strings.Join(got, "\n") != strings.Join(clean, "\n") {
				t.Fatalf("from poisoned frames:\n  %s\nfrom fresh frames:\n  %s", strings.Join(got, "\n  "), strings.Join(clean, "\n  "))
			}
			if span != cleanSpan {
				t.Fatalf("makespan %d from poisoned frames, %d from fresh ones", span, cleanSpan)
			}
		})
	}
}
