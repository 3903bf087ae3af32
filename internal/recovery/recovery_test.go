package recovery

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/health"
)

// The walker's own client: an array of counters, every phase adding its
// number to every cell in place — a non-idempotent kernel, so a repair that
// ran on anything but home truth would show. It knows nothing of LU or the
// ring.
type bump struct{ phase, cell int }

func counters(phases, cells int) Table[bump] {
	tab := Table[bump]{
		Assign: func(tasks []bump, live []int) map[int][]bump {
			asg := map[int][]bump{}
			for i, task := range tasks {
				n := live[i%len(live)]
				asg[n] = append(asg[n], task)
			}
			return asg
		},
		Order: func(a, b bump) int { return cmp.Compare(a.cell, b.cell) },
		Reset: true,
	}
	for p := 0; p < phases; p++ {
		tasks := make([]bump, cells)
		for c := range tasks {
			tasks[c] = bump{phase: p, cell: c}
		}
		tab.Phases = append(tab.Phases, Phase[bump]{Tasks: tasks, Losable: true})
	}
	return tab
}

// detector builds a detector under the scripts a test spells as a spec.
func detector(nodes int, script string) *health.Detector {
	return health.New(nodes, mustPlan(script+",seed=1"))
}

// shape renders a script's body kinds, one letter each: Phase, Repair, reSet,
// Idle.
func shape[T any](script []Body[T]) string {
	var b strings.Builder
	for _, body := range script {
		switch {
		case body.Reset:
			b.WriteByte('S')
		case body.Repair:
			b.WriteByte('R')
		case body.Assign == nil:
			b.WriteByte('I')
		default:
			b.WriteByte('P')
		}
	}
	return b.String()
}

// A repairer dying mid-repair loses exactly its share of the repair, which is
// repaired again after another reset; the dead take no further work.
func TestPlanRepairerDiesMidRepair(t *testing.T) {
	// Node 1 loses its share of phase 0; episode 3 is the repair of that share.
	det := detector(4, "crashat=1@1+2@3")
	script, err := Plan(det, counters(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := shape(script); got != "PSRSRP" {
		t.Fatalf("script shape %s, want PSRSRP", got)
	}
	// Node 1 held cells 1 and 5 of phase 0; nodes 0, 2, 3 repair them in cell
	// order, so node 2 gets cell 5 and node 0 — first of the two left —
	// repairs it again.
	if want := (map[int][]bump{0: {{0, 1}}, 2: {{0, 5}}}); !reflect.DeepEqual(script[2].Assign, want) {
		t.Fatalf("first repair %v, want %v", script[2].Assign, want)
	}
	if want := (map[int][]bump{0: {{0, 5}}}); !reflect.DeepEqual(script[4].Assign, want) {
		t.Fatalf("second repair %v, want %v", script[4].Assign, want)
	}
	for _, n := range []int{1, 2} {
		if tasks := script[5].Assign[n]; tasks != nil {
			t.Fatalf("dead node %d is dealt %v in the last phase", n, tasks)
		}
	}
}

// A node that dies and restarts keeps its slot: its tasks are lost like any
// death's, and it repairs its share of them itself.
func TestPlanRestartKeepsItsSlot(t *testing.T) {
	det := detector(3, "restartat=1@1")
	script, err := Plan(det, counters(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if got := shape(script); got != "PSRP" {
		t.Fatalf("script shape %s, want PSRP", got)
	}
	if want := (map[int][]bump{0: {{0, 1}}, 1: {{0, 4}}}); !reflect.DeepEqual(script[2].Assign, want) {
		t.Fatalf("repair %v, want %v (the rejoined node takes work)", script[2].Assign, want)
	}
	if len(script[3].Assign[1]) != 2 {
		t.Fatalf("rejoined node's share of the last phase is %v, want 2 tasks", script[3].Assign[1])
	}
}

// The reset a death owes waits out a partition window — only a barrier every
// member attends resets every cache — and a death at the reset episode itself
// re-arms it.
func TestPlanResetDeferredAndRearmed(t *testing.T) {
	// The cut spans episodes 2 and 3; episode 4 is the deferred reset.
	det := detector(4, "crashat=1@1,cutat=3@2:2,restartat=2@4")
	script, err := Plan(det, counters(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := shape(script); got != "PIISSRP" {
		t.Fatalf("script shape %s, want PIISSRP", got)
	}
}

// A workload that owes no reset (static roles moved by Handover) repairs at
// once, and hears of each crash-stop with the members that remain.
func TestPlanHandoverWithoutReset(t *testing.T) {
	det := detector(4, "crashat=0@1+2@1,restartat=3@1")
	tab := counters(1, 4)
	tab.Reset = false
	var heard []string
	tab.Handover = func(dead int, live []int) { heard = append(heard, fmt.Sprint(dead, live)) }
	script, err := Plan(det, tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := shape(script); got != "PR" {
		t.Fatalf("script shape %s, want PR", got)
	}
	if want := []string{"0 [1 3]", "2 [1 3]"}; !reflect.DeepEqual(heard, want) {
		t.Fatalf("handovers %v, want %v", heard, want)
	}
}

// Hopeless schedules are rejected at planning time, wherever the last
// survivor dies — a partition idle walk included — and so is one that never
// lets the program finish.
func TestPlanRejectsHopelessSchedules(t *testing.T) {
	det := detector(2, "cutat=1@2:4,crashat=0@2+1@3")
	if _, err := Plan(det, counters(2, 2)); err == nil || !strings.Contains(err.Error(), "every node is dead") {
		t.Fatalf("total loss inside an idle walk: err = %v", err)
	}

	forever := health.New(3, mustPlan("partition=1,partdur=1,seed=1"))
	if _, err := Plan(forever, counters(2, 2)); err == nil || !strings.Contains(err.Error(), "not converging") {
		t.Fatalf("a window on every episode: err = %v", err)
	}

	// Everybody dying at the last barrier owes nobody anything.
	last := detector(2, "crashat=0@2+1@2")
	tab := counters(2, 2)
	tab.Reset, tab.Phases[1].Losable = false, false
	if _, err := Plan(last, tab); err != nil {
		t.Fatalf("total loss at the final barrier of a finished program: %v", err)
	}
}

type counterRun struct {
	Sum int64
	Outcome
}

// runCounters executes the toy under plan, failing the task fail names (if
// any) on the node that runs it.
func runCounters(plan *fault.Plan, fail *bump) (counterRun, *core.Cluster, error) {
	const nodes, phases, cells = 5, 6, 40
	cfg := core.DefaultConfig(nodes)
	cfg.MemoryBytes = 4 << 20
	cfg.PageSize = 64 // eight cells a page: every page multi-writer
	cfg.Faults = plan
	c := core.MustNewCluster(cfg)
	script, err := Plan(c.Health, counters(phases, cells))
	if err != nil {
		return counterRun{}, c, err
	}
	xs := c.AllocI64(cells)
	_, out, err := Run(c, script, func(th *core.Thread) func(bump) error {
		return func(b bump) error {
			if fail != nil && b == *fail {
				return fmt.Errorf("node %d: task %v failed", th.Node, b)
			}
			th.SetI64(xs, b.cell, th.GetI64(xs, b.cell)+int64(b.phase+1))
			return nil
		}
	})
	run := counterRun{Outcome: out}
	for i, v := range c.DumpI64(xs) {
		if want := int64(phases * (phases + 1) / 2); v != want && err == nil {
			err = fmt.Errorf("cell %d holds %d, want %d", i, v, want)
		}
		run.Sum += v * int64(i+1)
	}
	return run, c, err
}

// The toy survives the whole stack — stops, restarts, cuts, drops — with the
// fault-free answer and a replayable decision history, through Replay.
func TestRunAndReplayCounters(t *testing.T) {
	for _, plan := range []fault.Plan{
		mustPlan("crash=0.05,seed=3"),
		mustPlan("drop=0.01,crash=0.06,crashrestart=on,partition=0.15,partdur=2,seed=5"),
	} {
		run, err := Replay(func(p *fault.Plan) (counterRun, error) {
			run, _, err := runCounters(p, nil)
			return run, err
		}, plan, func(r counterRun) uint64 { return uint64(r.Sum) }, func(r counterRun) counterRun {
			r.History = "" // round-robin handovers: times follow the host, decisions do not
			return r
		})
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if run.Deaths == 0 {
			t.Fatalf("%s killed nobody: %+v", plan, run)
		}
	}
}

// A failing task comes back as its error, not as a hang: the thread that saw
// it keeps attending barriers with no further work, its peers finish, and the
// cluster is left consistent.
func TestRunReturnsTaskErrorAndTerminates(t *testing.T) {
	plan := mustPlan("crash=0.05,seed=3")
	for _, p := range []*fault.Plan{nil, &plan} {
		_, c, err := runCounters(p, &bump{phase: 2, cell: 7})
		if err == nil || !strings.Contains(err.Error(), "task {2 7} failed") {
			t.Fatalf("armed %v: err = %v, want the task's error", p != nil, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("armed %v: cluster inconsistent after a failed task: %v", p != nil, err)
		}
	}
}

// Replay's three verdicts, on canned runs.
func TestReplayVerdicts(t *testing.T) {
	type result struct{ answer, clock uint64 }
	plan := fault.Plan{Seed: 1}
	check := func(runs ...result) error {
		i := 0
		_, err := Replay(func(p *fault.Plan) (result, error) {
			if (i == 0) != (p == nil) {
				t.Fatalf("run %d: plan %v", i, p)
			}
			i++
			if runs[i-1].answer == 0 {
				return result{}, errors.New("boom")
			}
			return runs[i-1], nil
		}, plan, func(r result) uint64 { return r.answer }, func(r result) result { return r })
		return err
	}
	for _, tc := range []struct {
		runs []result
		want string
	}{
		{[]result{{7, 1}, {7, 2}, {7, 2}}, ""},
		{[]result{{0, 0}}, "fault-free baseline: boom"},
		{[]result{{7, 1}, {8, 2}}, "diverged from fault-free"},
		{[]result{{7, 1}, {7, 2}, {0, 0}}, "faulty replay"},
		{[]result{{7, 1}, {7, 2}, {7, 3}}, "not deterministic"},
	} {
		err := check(tc.runs...)
		if (tc.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("runs %v: err = %v, want %q", tc.runs, err, tc.want)
		}
	}
}

// mustPlan parses a fault-plan spec the test wrote out itself.
func mustPlan(spec string) fault.Plan {
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		panic(err)
	}
	return plan
}
