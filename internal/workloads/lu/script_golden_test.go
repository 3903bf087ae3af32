package lu

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"argo/internal/fault"
	"argo/internal/health"
	"argo/internal/recovery"
)

var updateScripts = flag.Bool("update-scripts", false, "rewrite testdata/lu_scripts.txt from this run")

// scriptKinds and the helpers down to checkScripts are those of
// drf/script_golden_test.go: one fault matrix, one rendering, two tables.
var scriptKinds = []struct{ name, spec string }{
	{"stop", "crash=0.06"},
	{"restart", "crash=0.06,crashrestart=on"},
	{"part", "partition=0.15,partdur=2"},
	{"cut", "partition=0.15,partdur=2,partcut=1>2"},
	{"stop+part", "crash=0.06,partition=0.15,partdur=2"},
	{"stop+cut", "crash=0.06,partition=0.15,partdur=2,partcut=1>2"},
	{"restart+part", "crash=0.06,crashrestart=on,partition=0.15,partdur=2"},
	{"restart+cut", "crash=0.06,crashrestart=on,partition=0.15,partdur=2,partcut=1>2"},
	{"scripted", ""},
}

const scriptSeedLo, scriptSeedHi = 101, 150

func scriptDetector(t *testing.T, spec string, seed int64, nodes int, episodes int64) *health.Detector {
	t.Helper()
	if spec != "" {
		plan, err := fault.ParsePlan(fmt.Sprintf("%s,seed=%d", spec, seed))
		if err != nil {
			t.Fatal(err)
		}
		return health.New(nodes, plan)
	}
	// The draws are those of the scripts this cell was generated with: a
	// second crash of a node already listed replaces the first, and the
	// symmetric cut is listed first, so it wins where the two overlap.
	plan := fault.Plan{Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for i := 1 + rng.Intn(2); i > 0; i-- {
		c := fault.ScriptedCrash{Node: rng.Intn(nodes), Episode: 1 + rng.Int63n(episodes), Restart: rng.Intn(2) == 0}
		plan.Crashes = append(slices.DeleteFunc(plan.Crashes, func(o fault.ScriptedCrash) bool { return o.Node == c.Node }), c)
	}
	iso := rng.Intn(nodes)
	plan.Cuts = append(plan.Cuts, fault.ScriptedCut{Nodes: []int{iso}, Start: 1 + rng.Int63n(episodes), Dur: 1 + rng.Int63n(3)})
	from := rng.Intn(nodes)
	to := (from + 1 + rng.Intn(nodes-1)) % nodes
	plan.Cuts = append(plan.Cuts, fault.ScriptedCut{OneWay: true, From: from, To: to, Start: 1 + rng.Int63n(episodes), Dur: 1 + rng.Int63n(2)})
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	return health.New(nodes, plan)
}

// scriptLine is one script's golden line: its seed, then either the body
// count and the FNV-32a of its rendered bodies (one line each; the text
// itself would be two megabytes) or the reason it was rejected — the part of
// the error text that does not name a workload or an episode.
func scriptLine(seed int64, bodies []string, err error) string {
	if err != nil {
		reason := err.Error()
		for _, r := range []string{"every node is dead", "not converging"} {
			if strings.Contains(reason, r) {
				reason = r
			}
		}
		return fmt.Sprintf("%d ! %s", seed, reason)
	}
	h := fnv.New32a()
	for _, b := range bodies {
		fmt.Fprintln(h, b)
	}
	return fmt.Sprintf("%d %d %08x", seed, len(bodies), h.Sum32())
}

// renderScript renders one line per body — label, then each working node's
// task list in order — after checking, against a walk of its own, that no
// body deals work to a node the membership has lost.
func renderScript[T any](t *testing.T, det *health.Detector, script []recovery.Body[T], label func(recovery.Body[T]) string, task func(T) string) []string {
	t.Helper()
	var out []string
	walk := det.NewWalk()
	for i, body := range script {
		var b strings.Builder
		b.WriteString(label(body))
		for _, n := range walk.Members() {
			if len(body.Assign[n]) == 0 {
				continue
			}
			var ts []string
			for _, x := range body.Assign[n] {
				ts = append(ts, task(x))
			}
			fmt.Fprintf(&b, " %d:%s", n, strings.Join(ts, ","))
		}
		for n, ts := range body.Assign {
			if !slices.Contains(walk.Members(), n) || len(ts) == 0 {
				t.Fatalf("body %d deals %d tasks to node %d; members are %v", i, len(ts), n, walk.Members())
			}
		}
		out = append(out, b.String())
		walk.Step()
	}
	return out
}

// checkScripts compares the rendered matrix with the golden file line by
// line, or rewrites the file under -update-scripts.
func checkScripts(t *testing.T, path, got string) {
	t.Helper()
	if *updateScripts {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s has %d lines, this run rendered %d", path, len(wl), len(gl))
	}
	header := ""
	for i := range gl {
		if strings.HasPrefix(gl[i], "#") {
			header = gl[i]
		}
		if gl[i] != wl[i] {
			t.Errorf("%s line %d (%s):\n  got  %s\n  want %s", path, i+1, header, gl[i], wl[i])
		}
	}
}

var luShapes = []struct{ nodes, nb int }{{6, 3}, {6, 6}}

// TestLUScriptGolden pins every script LU's task table yields over the fault
// matrix against testdata/lu_scripts.txt, generated on the commit before
// package recovery existed by rendering that commit's LU planner the same way.
func TestLUScriptGolden(t *testing.T) {
	var b strings.Builder
	for _, sh := range luShapes {
		for _, k := range scriptKinds {
			fmt.Fprintf(&b, "# n%dnb%d %s\n", sh.nodes, sh.nb, k.name)
			for seed := int64(scriptSeedLo); seed <= scriptSeedHi; seed++ {
				det := scriptDetector(t, k.spec, seed, sh.nodes, int64(3*sh.nb))
				script, err := recovery.Plan(det, crashTable(sh.nb))
				bodies := renderScript(t, det, script, func(b recovery.Body[luTask]) string {
					switch {
					case b.Reset:
						return "reset"
					case len(b.Assign) == 0:
						return "idle"
					}
					return "work"
				}, func(x luTask) string { return fmt.Sprintf("%c%d.%d.%d", "drci"[x.kind], x.k, x.i, x.j) })
				b.WriteString(scriptLine(seed, bodies, err) + "\n")
			}
		}
	}
	checkScripts(t, "testdata/lu_scripts.txt", b.String())
}
