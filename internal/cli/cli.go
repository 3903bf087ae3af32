// Package cli holds what the cmd tools would otherwise each re-declare: the
// kernel table behind -bench, the -bench/-nodes/-tpn flag block with its
// validation, the -chaos flag, the view flags with the views they render
// (views.go), the -cpuprofile/-memprofile pair, the config hook that carries
// observers and chaos into internally built clusters, and the small output
// helpers. Every failure exits the process with the tool's name
// in front of the message: 2 for a bad command line, 1 for a failed run.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/probe"
	"argo/internal/workloads/blackscholes"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/ep"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/mm"
	"argo/internal/workloads/nbody"
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

// Runner runs one kernel with tpn threads per node on the cluster cfg
// describes — observers and fault plan included, since the runner hands cfg
// to the one cluster constructor.
type Runner func(cfg core.Config, tpn int) wload.Result

func kernelTable(bsOptions, cgN, epChunks, mmN, bodies int) map[string]Runner {
	return map[string]Runner{
		"blackscholes": func(cfg core.Config, tpn int) wload.Result {
			return blackscholes.RunArgo(cfg, blackscholes.Params{Options: bsOptions, Iters: 3}, tpn)
		},
		"cg": func(cfg core.Config, tpn int) wload.Result {
			return cg.RunArgo(cfg, cg.Params{N: cgN, PerRow: 12, Iters: 4}, tpn)
		},
		"ep": func(cfg core.Config, tpn int) wload.Result {
			return ep.RunArgo(cfg, ep.Params{Chunks: epChunks, PairsPerChunk: 128}, tpn)
		},
		"lu": func(cfg core.Config, tpn int) wload.Result {
			return lu.RunArgo(cfg, lu.Params{N: 96, Block: 16}, tpn)
		},
		"mm": func(cfg core.Config, tpn int) wload.Result {
			return mm.RunArgo(cfg, mm.Params{N: mmN}, tpn)
		},
		"nbody": func(cfg core.Config, tpn int) wload.Result {
			return nbody.RunArgo(cfg, nbody.Params{Bodies: bodies, Steps: 3}, tpn)
		},
	}
}

func pqKernel(kind pqbench.DSMLockKind) Runner {
	return func(cfg core.Config, tpn int) wload.Result {
		return wload.Result{Time: pqbench.RunDSM(kind, cfg, tpn, pqbench.DefaultParams()).Time}
	}
}

// The kernel tables. Kernels holds the six barrier-synchronized application
// kernels at the inputs argo-scope profiles, plus the three lock-layer rows
// (their Result carries Time alone); SweepKernels the six at argo-sweep's
// larger inputs (a knob's effect needs a working set that outgrows one cache
// line set).
var (
	Kernels = func() map[string]Runner {
		t := kernelTable(16384, 2048, 512, 64, 384)
		t["pq-hqdl"] = pqKernel(pqbench.DSMHQDL)
		t["pq-cohort"] = pqKernel(pqbench.DSMCohort)
		t["pq-mutex"] = pqKernel(pqbench.DSMMutex)
		return t
	}()
	SweepKernels = kernelTable(32768, 4096, 1024, 96, 512)
)

// Names returns the table's kernel names, sorted and joined with sep.
func Names(table map[string]Runner, sep string) string {
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, sep)
}

// Bench is the -bench/-nodes/-tpn flag block over one kernel table.
type Bench struct {
	Name       *string
	Nodes, TPN *int
	table      map[string]Runner
}

// BenchFlags declares -bench, -nodes (default 4) and -tpn on the command
// line. Call Runner after flag.Parse.
func BenchFlags(table map[string]Runner, defBench string, defTPN int) *Bench {
	return &Bench{
		Name:  flag.String("bench", defBench, "benchmark: "+Names(table, "|")),
		Nodes: flag.Int("nodes", 4, "cluster nodes"),
		TPN:   flag.Int("tpn", defTPN, "threads per node"),
		table: table,
	}
}

// Runner validates the parsed block and returns the selected kernel.
func (b *Bench) Runner() Runner {
	run, ok := b.table[*b.Name]
	if !ok {
		Usagef("unknown benchmark %q (want %s)", *b.Name, Names(b.table, "|"))
	}
	if *b.Nodes <= 0 || *b.TPN <= 0 {
		Usagef("-nodes and -tpn must be positive (got %d, %d)", *b.Nodes, *b.TPN)
	}
	return run
}

// Config returns the workload-default configuration for -nodes machines;
// tools set observers and a fault plan on it before handing it to a Runner.
func (b *Bench) Config() core.Config { return wload.ArgoConfig(*b.Nodes, 64<<20) }

// Chaos is the -chaos flag: one spec string for the whole fault stack.
type Chaos struct{ Spec *string }

// ChaosFlag declares -chaos with the tool's own usage text.
func ChaosFlag(usage string) *Chaos { return &Chaos{Spec: flag.String("chaos", "", usage)} }

// Plan parses the spec (after flag.Parse). It returns nil for an empty spec
// and exits with status 2 on a malformed one.
func (c *Chaos) Plan() *fault.Plan {
	if *c.Spec == "" {
		return nil
	}
	plan, err := fault.ParsePlan(*c.Spec)
	if err != nil {
		Usagef("%v", err)
	}
	return &plan
}

// HookConfigs installs the process's one core.ConfigHook, for the tools whose
// clusters are built out of their sight (harness experiments, workload
// parameter structs): every Config built from now on also reports into obs,
// and runs under plan unless it carries a fault plan of its own.
func HookConfigs(obs []probe.Sink, plan *fault.Plan) {
	if len(obs) == 0 && plan == nil {
		return // nothing to carry: the clusters are built as if no tool were there
	}
	core.ConfigHook = func(cfg *core.Config) {
		cfg.Observers = slices.Concat(cfg.Observers, obs)
		if cfg.Faults == nil {
			cfg.Faults = plan
		}
	}
}

// Profiles is the -cpuprofile/-memprofile pair: pprof profiles of the run
// itself (the simulator's host-side cost, not virtual time).
type Profiles struct{ cpu, mem *string }

// ProfileFlags declares -cpuprofile and -memprofile.
func ProfileFlags() *Profiles {
	return &Profiles{
		cpu: flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file"),
		mem: flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file"),
	}
}

// Start begins the requested profiles and returns the function that
// finishes and writes them; call it as `defer prof.Start()()`.
func (p *Profiles) Start() (stop func()) {
	var cpuFile *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Fatal(err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				Fatal(err)
			}
			fmt.Printf("cpu profile written to %s\n", *p.cpu)
		}
		if *p.mem != "" {
			runtime.GC()
			if err := writeFile(*p.mem, pprof.WriteHeapProfile); err != nil {
				Fatal(err)
			}
			fmt.Printf("heap profile written to %s\n", *p.mem)
		}
	}
}

// writeFile creates path and fills it through write; the first failure of
// create, write and close is the error.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func tool() string { return filepath.Base(os.Args[0]) }

// Fatal reports a failed run as "<tool>: err" and exits with status 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool(), err)
	os.Exit(1)
}

// Usagef reports a bad command line as "<tool>: message" and exits with
// status 2.
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool(), fmt.Sprintf(format, args...))
	os.Exit(2)
}
