// Command argo-sweep explores one design knob at a time: it runs a chosen
// benchmark across a sweep of a single parameter and prints virtual time
// plus the protocol counters, for ablation studies beyond the paper's
// figures (home placement policy, prefetch degree, network latency,
// single-writer diff suppression, decay-based reclassification). Each
// kernel runs at its full Figure 8–10 input, and every run's answer is
// checked against the serial one: a wrong one prints BADCHECK, is named on
// standard error and makes the exit status 1.
//
// Usage:
//
//	argo-sweep -bench mm -knob prefetch -nodes 4 -tpn 8
//	argo-sweep -bench cg -knob latency
//	argo-sweep -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"argo/internal/cli"
	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/harness"
	"argo/internal/mem"
	"argo/internal/sim"
)

type variant struct {
	label string
	apply func(cfg *core.Config)
}

// knobs is the table of knobs, in -list order.
var knobs = []struct {
	name     string
	variants []variant
}{
	{"prefetch", []variant{
		{"1 page/line", func(c *core.Config) { c.PagesPerLine = 1 }},
		{"2 pages/line", func(c *core.Config) { c.PagesPerLine = 2 }},
		{"4 pages/line", func(c *core.Config) { c.PagesPerLine = 4 }},
		{"8 pages/line", func(c *core.Config) { c.PagesPerLine = 8 }},
		{"16 pages/line", func(c *core.Config) { c.PagesPerLine = 16 }},
	}},
	{"policy", []variant{
		{"interleaved", func(c *core.Config) { c.Policy = mem.Interleaved }},
		{"blocked", func(c *core.Config) { c.Policy = mem.Blocked }},
	}},
	{"mode", []variant{
		{"S", func(c *core.Config) { c.Mode = coherence.ModeS }},
		{"PS", func(c *core.Config) { c.Mode = coherence.ModePS }},
		{"PS3", func(c *core.Config) { c.Mode = coherence.ModePS3 }},
	}},
	{"swdiff", []variant{
		{"diffs always", func(c *core.Config) { c.SWDiffSuppress = false }},
		{"SW full-page", func(c *core.Config) { c.SWDiffSuppress = true }},
	}},
	{"decay", []variant{
		{"no decay", func(c *core.Config) { c.DecayEpochs = 0 }},
		{"decay/8 epochs", func(c *core.Config) { c.DecayEpochs = 8 }},
		{"decay/32 epochs", func(c *core.Config) { c.DecayEpochs = 32 }},
	}},
	{"latency", []variant{
		{"500 ns", func(c *core.Config) { c.Net.RemoteLatency = 500 }},
		{"1000 ns", func(c *core.Config) { c.Net.RemoteLatency = 1000 }},
		{"2500 ns", func(c *core.Config) { c.Net.RemoteLatency = 2500 }},
		{"5000 ns", func(c *core.Config) { c.Net.RemoteLatency = 5000 }},
		{"10000 ns", func(c *core.Config) { c.Net.RemoteLatency = 10000 }},
	}},
	{"bandwidth", []variant{
		{"100 ns/KB", func(c *core.Config) { c.Net.NsPerKB = 100 }},
		{"400 ns/KB", func(c *core.Config) { c.Net.NsPerKB = 400 }},
		{"1600 ns/KB", func(c *core.Config) { c.Net.NsPerKB = 1600 }},
	}},
	{"writebuffer", []variant{
		{"8 pages", func(c *core.Config) { c.WriteBufferPages = 8 }},
		{"128 pages", func(c *core.Config) { c.WriteBufferPages = 128 }},
		{"2048 pages", func(c *core.Config) { c.WriteBufferPages = 2048 }},
		{"32768 pages", func(c *core.Config) { c.WriteBufferPages = 32768 }},
	}},
	// Coherence granularity — §6's future work on "the relation of
	// granularity, data placement, and classification". Smaller pages mean
	// less false sharing (fewer MW classifications) but more protocol
	// operations per byte.
	{"pagesize", []variant{
		{"1 KB pages", func(c *core.Config) { c.PageSize = 1024 }},
		{"2 KB pages", func(c *core.Config) { c.PageSize = 2048 }},
		{"4 KB pages", func(c *core.Config) { c.PageSize = 4096 }},
		{"8 KB pages", func(c *core.Config) { c.PageSize = 8192 }},
		{"16 KB pages", func(c *core.Config) { c.PageSize = 16384 }},
	}},
}

// knobNames returns the knobs' names, in table order, joined with sep.
func knobNames(sep string) string {
	var names []string
	for _, k := range knobs {
		names = append(names, k.name)
	}
	return strings.Join(names, sep)
}

var knobUsage = "knob to sweep: " + knobNames("|")

func main() {
	benches := harness.SweepBenches()
	bench := cli.BenchFlags(benches, "mm", 8)
	knob := flag.String("knob", "prefetch", knobUsage)
	list := flag.Bool("list", false, "list benchmarks and knobs")
	flag.Parse()

	if *list {
		fmt.Printf("benchmarks: %s\nknobs: %s\n", cli.Names(benches, " "), knobNames(" "))
		return
	}
	bench.Validate()
	var vs []variant
	for _, k := range knobs {
		if k.name == *knob {
			vs = k.variants
		}
	}
	if vs == nil {
		cli.Usagef("unknown knob %q (want %s)", *knob, knobNames("|"))
	}

	headers := []string{*knob, "time (ms)", "read-misses", "writebacks", "self-inv", "SI-filtered", "bytes-sent"}
	var rows [][]string
	var base sim.Time
	for i, v := range vs {
		cfg := bench.Config()
		v.apply(&cfg)
		r, ok := bench.Run(cfg, v.label)
		if i == 0 {
			base = r.Time
		}
		ms := fmt.Sprintf("%.3f (%.2fx)", float64(r.Time)/1e6, float64(r.Time)/float64(base))
		if !ok {
			ms = "BADCHECK"
		}
		rows = append(rows, []string{
			v.label,
			ms,
			fmt.Sprintf("%d", r.Stats.ReadMisses),
			fmt.Sprintf("%d", r.Stats.Writebacks),
			fmt.Sprintf("%d", r.Stats.SelfInvalidations),
			fmt.Sprintf("%d", r.Stats.SIFiltered),
			fmt.Sprintf("%d", r.Stats.BytesSent),
		})
	}
	harness.Fprint(os.Stdout, harness.Table{
		Title:   fmt.Sprintf("%s: sweep of %s (%d nodes × %d threads)", *bench.Name, *knob, *bench.Nodes, *bench.TPN),
		Headers: headers, Rows: rows,
	})
	bench.Done()
}
