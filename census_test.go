package argo_test

import (
	"flag"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"argo/internal/coherence"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

var census = flag.Bool("census", false, "run the determinism census of the six ledger runner calls (report only; go test -run Census -census -cpu 1,2,4 -v .)")

// censusRuns is how often each runner call is repeated per GOMAXPROCS value.
const censusRuns = 5

// fact is one thing a runner call reported.
type fact struct{ name, value string }

func resultFacts(r wload.Result) []fact {
	fs := []fact{{"makespan", strconv.FormatInt(int64(r.Time), 10)}, {"check", strconv.FormatFloat(r.Check, 'x', -1, 64)}}
	s := reflect.ValueOf(r.Stats)
	for i := 0; i < s.NumField(); i++ {
		fs = append(fs, fact{"stats." + s.Type().Field(i).Name, strconv.FormatInt(s.Field(i).Int(), 10)})
	}
	return fs
}

func pqFacts(r pqbench.Result) []fact {
	return []fact{
		{"makespan", strconv.FormatInt(int64(r.Time), 10)}, {"ops", strconv.FormatInt(r.Ops, 10)},
		{"delegated", strconv.FormatInt(r.Delegated, 10)}, {"si-fences", strconv.FormatInt(r.SIFences, 10)},
	}
}

// censusCalls are the six runner calls of benchmark/workloads.go, at the
// ledger's sizes, geometry (4 nodes × 4 threads, six nodes for lu_chaos) and
// default seed; a seeded workload repeats one seed here, where the ledger
// gives every repetition its own.
var censusCalls = []struct {
	name string
	run  func() ([]fact, error)
}{
	{"lu_bulk", func() ([]fact, error) {
		return resultFacts(lu.RunArgo(wload.ArgoConfig(4, 64<<20), lu.Params{N: 768, Block: 32}, 4)), nil
	}},
	{"cg_gather", func() ([]fact, error) {
		return resultFacts(cg.RunArgo(wload.ArgoConfig(4, 64<<20), cg.Params{N: 65536, PerRow: 32, Iters: 32}, 4)), nil
	}},
	{"drf_scatter", func() ([]fact, error) {
		r, err := drf.RunReport(drf.Params{
			Seed: 42, Nodes: 4, TPN: 4, Elements: 131072, Epochs: 6, Reads: 2048,
			PageSize: 4096, CacheLine: 64, PerLine: 2, WBPages: 64,
			Mode: coherence.ModePS3, Policy: mem.Interleaved,
		})
		return []fact{{"makespan", strconv.FormatInt(int64(r.Makespan), 10)}, {"digest", strconv.FormatUint(r.Digest, 16)}}, err
	}},
	{"pq_hqdl", func() ([]fact, error) {
		return pqFacts(pqbench.RunDSM(pqbench.DSMHQDL, wload.ArgoConfig(4, 64<<20), 4, pqbench.Params{OpsPerThread: 4000, WorkUnits: 48, Preload: 512})), nil
	}},
	{"pq_mutex", func() ([]fact, error) {
		return pqFacts(pqbench.RunDSM(pqbench.DSMMutex, wload.ArgoConfig(4, 64<<20), 4, pqbench.Params{OpsPerThread: 400, WorkUnits: 48, Preload: 512})), nil
	}},
	{"lu_chaos", func() ([]fact, error) {
		plan, err := fault.ParsePlan("crash=0.03,crashrestart=on,partition=0.05,partdur=2,drop=0.01,seed=42")
		if err != nil {
			return nil, err
		}
		r, err := lu.RunCrash(lu.CrashParams{Params: lu.Params{N: 768, Block: 32}, Nodes: 6, Faults: &plan})
		sorted := strings.Fields(r.History)
		sort.Strings(sorted)
		return []fact{
			{"makespan", strconv.FormatInt(int64(r.Makespan), 10)}, {"digest", strconv.FormatUint(r.Digest, 16)},
			{"epoch", strconv.FormatInt(r.Epoch, 10)}, {"deaths", strconv.Itoa(r.Deaths)}, {"suspects", strconv.Itoa(r.Partitions)},
			{"decisions", r.History}, {"decisions-sorted", strings.Join(sorted, " ")},
		}, err
	}},
}

// TestCensus is stage (a) of ROADMAP item 1: it makes each ledger runner call
// censusRuns times and prints which of the facts it reports repeated exactly
// and which did not (for a numeric fact, over what range). It asserts nothing
// that is known to vary today — its table, committed in DESIGN §20, is the bug
// list the sequencer has to empty, and inverted it is the acceptance test.
func TestCensus(t *testing.T) {
	if !*census {
		t.Skip("report only, and a minute of runs: give -census (with -cpu 1,2,4 -v) to take it")
	}
	fmt.Printf("census: GOMAXPROCS=%d, %d runs of each call\n", runtime.GOMAXPROCS(0), censusRuns)
	for _, call := range censusCalls {
		var names []string
		seen := map[string]map[string]bool{}
		for i := 0; i < censusRuns; i++ {
			facts, err := call.run()
			if err != nil {
				t.Fatalf("%s: %v", call.name, err)
			}
			for _, f := range facts {
				if seen[f.name] == nil {
					seen[f.name] = map[string]bool{}
					names = append(names, f.name)
				}
				seen[f.name][f.value] = true
			}
		}
		var same, varied []string
		for _, name := range names {
			if len(seen[name]) == 1 {
				same = append(same, name)
			} else {
				varied = append(varied, fmt.Sprintf("%s (%d values%s)", name, len(seen[name]), spread(seen[name])))
			}
		}
		fmt.Printf("  %-12s repeated: %s\n  %-12s varied:   %s\n", call.name, orNone(same), "", orNone(varied))
	}
}

// spread renders the range of a set of integer values as ", lo…hi, x %" (the
// distance between them over the larger), and as nothing if one is no integer.
func spread(values map[string]bool) string {
	lo, hi := int64(0), int64(0)
	first := true
	for v := range values {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return ""
		}
		if first || n < lo {
			lo = n
		}
		if first || n > hi {
			hi = n
		}
		first = false
	}
	return fmt.Sprintf(", %d…%d, %.2f %%", lo, hi, 100*float64(hi-lo)/float64(hi))
}

func orNone(names []string) string {
	if len(names) == 0 {
		return "—"
	}
	return strings.Join(names, ", ")
}
