// Package cli holds what the cmd tools would otherwise each re-declare: the
// -bench/-nodes/-tpn flag block over a benchmark list of harness, with its
// validation and the record of every wrong answer, the -chaos flag, the view
// flags with the views they render (views.go), the -cpuprofile/-memprofile
// pair, the config hook that carries observers and chaos into internally
// built clusters, and the small output helpers. Every failure exits the
// process with the tool's name in front of the message: 2 for a bad command
// line, 1 for a failed run or a wrong answer.
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
	"strings"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/harness"
	"argo/internal/probe"
	"argo/internal/workloads/wload"
)

// Names returns the benchmarks' names, in table order, joined with sep.
func Names(benches []harness.Bench, sep string) string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name
	}
	return strings.Join(names, sep)
}

// Bench is the -bench/-nodes/-tpn flag block over one tool's benchmarks, and
// the record of the wrong answers its runs gave.
type Bench struct {
	Name       *string
	Nodes, TPN *int
	benches    []harness.Bench
	run        func(cfg core.Config, tpn int, variant string) (wload.Result, error)
	bad        []error
}

// BenchFlags declares -bench, -nodes (default 4) and -tpn on the command
// line. Call Validate after flag.Parse.
func BenchFlags(benches []harness.Bench, defBench string, defTPN int) *Bench {
	return &Bench{
		Name:    flag.String("bench", defBench, "benchmark: "+Names(benches, "|")),
		Nodes:   flag.Int("nodes", 4, "cluster nodes"),
		TPN:     flag.Int("tpn", defTPN, "threads per node"),
		benches: benches,
	}
}

// Validate checks the parsed block and selects the benchmark.
func (b *Bench) Validate() {
	i := slices.IndexFunc(b.benches, func(x harness.Bench) bool { return x.Name == *b.Name })
	if i < 0 {
		Usagef("unknown benchmark %q (want %s)", *b.Name, Names(b.benches, "|"))
	}
	if *b.Nodes <= 0 || *b.TPN <= 0 {
		Usagef("-nodes and -tpn must be positive (got %d, %d)", *b.Nodes, *b.TPN)
	}
	b.run = b.benches[i].Run
}

// Run runs the selected benchmark on the cluster cfg describes, -tpn threads
// per node, and reports whether its answer is the serial one. A wrong answer
// is kept, under variant, for Done to name; the caller prints BADCHECK in its
// cell.
func (b *Bench) Run(cfg core.Config, variant string) (wload.Result, bool) {
	r, err := b.run(cfg, *b.TPN, variant)
	if err != nil {
		b.bad = append(b.bad, err)
	}
	return r, err == nil
}

// Done names every wrong answer of the runs on standard error and, if there
// was one, exits with status 1.
func (b *Bench) Done() {
	for _, err := range b.bad {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool(), err)
	}
	if len(b.bad) > 0 {
		os.Exit(1)
	}
}

// Config returns the workload-default configuration for -nodes machines;
// tools set observers, a fault plan or a knob on it before handing it to Run.
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
