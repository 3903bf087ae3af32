package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/harness"
	"argo/internal/metrics"
	"argo/internal/probe"
	"argo/internal/workloads/wload"
)

func counterSum(ms *metrics.Suite, name string) int64 {
	var n int64
	for _, c := range ms.Dump().Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// TestHookConfigsSingleSeam: the config hook is the one seam into clusters a
// harness experiment builds internally — its suite collects their layers and
// their locks, its default fault plan arms their fabrics — and a config that
// carries its own fault plan keeps it.
func TestHookConfigsSingleSeam(t *testing.T) {
	ms := metrics.NewSuite()
	def, err := fault.ParsePlan("drop=0.05,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	HookConfigs([]probe.Sink{ms}, &def)
	defer func() { core.ConfigHook = nil }()

	e, ok := harness.Lookup("fig12")
	if !ok {
		t.Fatal("fig12 not registered")
	}
	if _, err := e.Run(true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"argo_fabric_ops_total", "argo_lock_acquires_total", "argo_fault_injected_total"} {
		if counterSum(ms, name) == 0 {
			t.Errorf("%s: nothing reached the hooked suite from the experiment's clusters", name)
		}
	}

	cfg := core.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	own := fault.Plan{Seed: 99}
	cfg.Faults = &own
	c := core.MustNewCluster(cfg)
	if c.Cfg.Faults != &own {
		t.Fatal("the hook's default plan replaced an explicit cfg.Faults")
	}
	if obs := c.Cfg.Observers; len(obs) != 1 || obs[0] != ms || c.Obs == nil {
		t.Fatalf("the hook's suite did not reach a directly built cluster: observers %v", obs)
	}
}

// TestKernelTables: argo-scope's -bench names are the six kernels and the
// three DSM locks, argo-sweep's the six kernels, both in the order -bench's
// usage lists them.
func TestKernelTables(t *testing.T) {
	const six = "blackscholes|cg|ep|lu|mm|nbody"
	if got := Names(harness.SweepBenches(), "|"); got != six {
		t.Fatalf("argo-sweep's benchmarks = %s", got)
	}
	if got := Names(harness.ScopeBenches(), "|"); got != six+"|pq-cohort|pq-hqdl|pq-mutex" {
		t.Fatalf("argo-scope's benchmarks = %s", got)
	}
}

// TestBadCheckExitsOne: a run whose answer is wrong prints BADCHECK in its
// cell, the runs after it still happen, and the tool names the wrong one on
// standard error — kernel and variant, as the check's error says — and exits
// with status 1. Each case runs this test binary again as the tool.
func TestBadCheckExitsOne(t *testing.T) {
	if mode := os.Getenv("ARGO_BADCHECK_TOOL"); mode != "" {
		flag.CommandLine = flag.NewFlagSet("argo-sweep", flag.ExitOnError)
		answer := func(cfg core.Config, tpn int, variant string) (wload.Result, error) {
			if mode == "wrong" && variant == "1 KB pages" {
				return wload.Result{}, fmt.Errorf("lu %s at %d nodes, %d threads: answer 43, serial 42", variant, cfg.Nodes, cfg.Nodes*tpn)
			}
			return wload.Result{Time: 1000}, nil
		}
		b := BenchFlags([]harness.Bench{{Name: "lu", Run: answer}}, "lu", 2)
		flag.CommandLine.Parse([]string{"-nodes", "2"})
		b.Validate()
		for _, v := range []string{"1 KB pages", "4 KB pages"} {
			cell := "ok"
			if _, ok := b.Run(b.Config(), v); !ok {
				cell = "BADCHECK"
			}
			fmt.Println(v, cell)
		}
		b.Done()
		os.Exit(0)
	}
	for _, c := range []struct {
		mode   string
		status int
		stdout string
		stderr string
	}{
		{"wrong", 1, "1 KB pages BADCHECK\n4 KB pages ok\n", "lu 1 KB pages at 2 nodes, 4 threads: answer 43, serial 42"},
		{"right", 0, "1 KB pages ok\n4 KB pages ok\n", ""},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadCheckExitsOne$")
		cmd.Env = append(os.Environ(), "ARGO_BADCHECK_TOOL="+c.mode)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		status := 0
		if exit, ok := err.(*exec.ExitError); ok {
			status = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if status != c.status || stdout.String() != c.stdout || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%s answer: exit status %d, stdout %q, stderr %q; want %d, %q and a line naming %q",
				c.mode, status, stdout.String(), stderr.String(), c.status, c.stdout, c.stderr)
		}
	}
}
