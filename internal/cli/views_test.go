package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/locks"
	"argo/internal/probe"
	"argo/internal/trace"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/wload"
)

// parseViews declares the view block on a fresh command line and parses args.
func parseViews(offline bool, args ...string) *Views {
	flag.CommandLine = flag.NewFlagSet("argo-scope", flag.ExitOnError)
	v := ViewFlags(offline)
	flag.CommandLine.Parse(args)
	return v
}

// TestViewsDetachedByDefault: with no view flag Sinks is nil, and a cluster
// built from that configuration has no observer and no spine.
func TestViewsDetachedByDefault(t *testing.T) {
	v := parseViews(true)
	sinks := v.Sinks()
	if sinks != nil {
		t.Fatalf("no view flag, yet Sinks() = %v", sinks)
	}
	cfg := core.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	cfg.Observers = sinks
	c := core.MustNewCluster(cfg)
	if c.Cfg.Observers != nil || c.Obs != nil {
		t.Fatalf("detached cluster has observers %v, spine %v", c.Cfg.Observers, c.Obs)
	}
	var out bytes.Buffer
	if err := v.Render(&out); err != nil || out.Len() != 0 {
		t.Fatalf("detached Render wrote %q, err %v", out.String(), err)
	}
	// -k and -trace-format only modify views another flag asks for.
	if sinks := parseViews(false, "-k", "5", "-trace-format", "csv").Sinks(); sinks != nil {
		t.Fatalf("modifier flags alone attached %v", sinks)
	}
}

// threeReplayableRuns are the runs TestProbeGolden pins: the crash-restart
// ring under every transient fault, the ring across a partition, and an
// uncontended pass over the three DSM lock algorithms.
func threeReplayableRuns(t *testing.T) {
	t.Helper()
	for _, spec := range []string{
		"drop=0.02,delay=0.05,jitter=2us,stall=5us,stallp=0.02,atomicfail=0.05,crash=0.05,crashrestart=on,seed=42",
		"partition=0.15,partdur=2,seed=7",
	} {
		plan, err := fault.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		pr := drf.DefaultRing(4)
		pr.Faults = &plan
		if _, err := drf.RunRing(pr); err != nil {
			t.Fatalf("ring under %s: %v", spec, err)
		}
	}
	cfg := core.DefaultConfig(2)
	cfg.MemoryBytes = 4 << 20
	c := wload.MustCluster(cfg)
	slot := c.AllocI64(1)
	mu, co, hq := locks.NewDSMMutex(c, 0), locks.NewDSMCohortLock(c), locks.NewHQDLock(c)
	c.Run(1, func(th *core.Thread) {
		if th.Rank == 1 {
			bump := func(h *core.Thread) { h.SetI64(slot, 0, h.GetI64(slot, 0)+1) }
			for i := 0; i < 10; i++ {
				mu.Lock(th)
				bump(th)
				mu.Unlock(th)
			}
			for i := 0; i < 10; i++ {
				co.Lock(th)
				bump(th)
				co.Unlock(th)
			}
			for i := 0; i < 10; i++ {
				hq.DelegateWait(th, bump)
			}
		}
		th.Barrier()
	})
}

// TestViewsRenderWhatTheThreeToolsPrinted: with every view asked for, Sinks
// is exactly the two stock sinks, and Render over the three replayable runs
// prints the hot-spot rows argo-top printed, the event counts argo-trace
// printed and the critical-path report argo-critpath printed — the golden was
// rendered by those tools' code on the last commit that had them (81f57a9) —
// and writes the three files.
func TestViewsRenderWhatTheThreeToolsPrinted(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	v := parseViews(false, "-top", "10", "-metrics-out", file("m.json"), "-trace-out", file("t.json"),
		"-critpath", "-", "-pages", "2", "-log-out", file("l.json"))
	sinks := v.Sinks()
	if len(sinks) != 2 || sinks[0] != probe.Sink(v.ms) || sinks[1] != probe.Sink(v.tr) {
		t.Fatalf("all views: Sinks() = %v, want the suite and the tracer", sinks)
	}
	HookConfigs(sinks, nil)
	threeReplayableRuns(t)
	core.ConfigHook = nil

	var out bytes.Buffer
	if err := v.Render(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/views_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	// The golden is the tools' three printouts back to back; Render puts its
	// own lines (files written, biographies) between and after them.
	rest := out.String()
	for _, block := range strings.Split(strings.TrimSpace(string(want)), "\n\n") {
		i := strings.Index(rest, block+"\n")
		if i < 0 {
			t.Fatalf("Render output lacks, after what matched so far, this block of the tools' output:\n%s\n\ngot:\n%s", block, out.String())
		}
		rest = rest[i+len(block):]
	}
	if !strings.Contains(rest, "page 0: ") {
		t.Errorf("-pages 2 printed no biography after the report:\n%s", rest)
	}

	for _, name := range []string{"m.json", "t.json", "l.json"} {
		data, err := os.ReadFile(file(name))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s is not JSON: %v", name, err)
		}
	}
	// The Perfetto timeline carries the flow arrows since -critpath is set.
	if data, _ := os.ReadFile(file("t.json")); !bytes.Contains(data, []byte(`"ph":"s"`)) {
		t.Error("timeline written with -critpath has no flow-start events")
	}
}

// TestViewsOfflineEqualsOnline: every view of the log renders from the saved
// log what it rendered in the run that wrote it — the event summary, the
// biographies, the critical-path report and both timelines, flow arrows
// included — byte for byte; only the lines naming the files differ.
func TestViewsOfflineEqualsOnline(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	// render parses args, runs the three replayable runs unless -in is among
	// them, and returns what Render printed, less the lines naming a file.
	render := func(offline bool, args ...string) string {
		v := parseViews(offline, args...)
		if sinks := v.Sinks(); !offline {
			HookConfigs(sinks, nil)
			threeReplayableRuns(t)
			core.ConfigHook = nil
		}
		var out bytes.Buffer
		if err := v.Render(&out); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.Contains(line, dir) {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	for _, format := range []string{"csv", "perfetto"} {
		views := []string{"-pages", "2", "-critpath", "-", "-trace-format", format}
		online := render(false, append(views, "-trace-out", file("on."+format), "-log-out", file(format+".log"))...)
		offline := render(true, append(views, "-trace-out", file("off."+format), "-in", file(format+".log"))...)
		if online != offline {
			t.Fatalf("%s: offline printed\n%s\n\nonline\n%s", format, offline, online)
		}
		for _, want := range []string{"event counts:", "critical path:", "page 0: "} {
			if !strings.Contains(online, want) {
				t.Fatalf("%s: no %q in\n%s", format, want, online)
			}
		}
		on, err := os.ReadFile(file("on." + format))
		if err != nil {
			t.Fatal(err)
		}
		if off, err := os.ReadFile(file("off." + format)); err != nil || !bytes.Equal(on, off) {
			t.Fatalf("%s: the timeline from the log differs from the run's (err %v)", format, err)
		}
		if format == "perfetto" && !bytes.Contains(on, []byte(`"ph":"s"`)) {
			t.Error("perfetto timeline with -critpath has no flow-start events")
		}
	}
}

// TestViewsExitPaths: a view flag that cannot be honoured is a usage error
// (status 2) decided before any run, naming the flags at fault; a drop
// warning says what the numbers have become and by how much. Each case runs
// this test binary again as the tool.
func TestViewsExitPaths(t *testing.T) {
	if mode := os.Getenv("ARGO_VIEWS_TOOL"); mode != "" {
		v := parseViews(true, strings.Fields(os.Getenv("ARGO_VIEWS_ARGS"))...)
		v.Sinks()
		fmt.Println("run paid for")
		if mode == "drop" {
			v.tr = trace.New(2)
			for i := 0; i < 5; i++ {
				v.tr.Observe(probe.Event{Kind: probe.ReadMiss, T: int64(i)})
			}
		}
		if err := v.Render(os.Stdout); err != nil {
			Fatal(err)
		}
		os.Exit(0)
	}
	dir := t.TempDir()
	log, dropped := filepath.Join(dir, "l.json"), filepath.Join(dir, "dropped.json")
	if err := writeFile(log, trace.New(0).WriteLog); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode, args string
		status     int
		stderr     []string
	}{
		{"run", "-in " + log + " -top 5", 2, []string{"-top with -in"}},
		{"run", "-in " + log + " -metrics-out " + filepath.Join(dir, "m.json"), 2, []string{"-metrics-out with -in"}},
		{"run", "-trace-format svg -trace-out " + filepath.Join(dir, "t.svg"), 2, []string{`unknown -trace-format "svg"`, "csv|perfetto"}},
		{"run", "-in " + filepath.Join(dir, "missing.json"), 1, []string{"missing.json"}},
		{"drop", "-trace-out " + filepath.Join(dir, "t.json") + " -log-out " + dropped, 0, []string{"3 trace events dropped", "lower bounds", "short by that many"}},
		// The log keeps its drop count: read back, it warns as the run did.
		{"run", "-in " + dropped + " -trace-out " + filepath.Join(dir, "t2.json"), 0, []string{"3 trace events dropped", "lower bounds", "short by that many"}},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestViewsExitPaths$")
		cmd.Env = append(os.Environ(), "ARGO_VIEWS_TOOL="+c.mode, "ARGO_VIEWS_ARGS="+c.args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		status := 0
		if exit, ok := err.(*exec.ExitError); ok {
			status = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if status != c.status {
			t.Errorf("%s: exit status %d, want %d (stderr: %s)", c.args, status, c.status, stderr.String())
		}
		for _, want := range c.stderr {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%s: stderr lacks %q:\n%s", c.args, want, stderr.String())
			}
		}
		if paid := strings.Contains(stdout.String(), "run paid for"); paid != (c.status != 2) {
			t.Errorf("%s: usage error decided before the run = %v, want %v", c.args, !paid, c.status == 2)
		}
	}
}
