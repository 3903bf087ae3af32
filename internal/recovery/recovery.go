// Package recovery is how a workload survives Cygnus: it turns the workload's
// task table into the script its threads execute under a fault schedule, runs
// that script, and checks the chaos contract on the result.
//
// Crash and partition verdicts are pure functions of (seed, node, episode),
// so the whole schedule can be read before the run. Plan steps a health.Walk —
// the same membership view the member barrier steps at runtime (package
// core) — through the program's barrier episodes and emits one body per
// episode: a program phase, a repair of the kernels a death lost, a
// classification reset, or an idle body. Threads just execute their slice of
// each body; the barrier after it is where crashes and cuts strike.
//
// A workload supplies a Table and a kernel (Run's worker) and nothing else;
// it never reads the fault schedule itself.
package recovery

import (
	"errors"
	"fmt"
	"slices"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/health"
	"argo/internal/sim"
)

// Phase is one barrier-delimited step of the fault-free program. Its tasks
// must be data-race-free against each other and read only what earlier
// barriers fenced (plus their own output), so any subset can run as a body.
type Phase[T any] struct {
	Tasks []T
	// Losable marks tasks that write: a node dying at the barrier after them
	// never drained its write buffer (the crash wipes it before the SD
	// fence), so home memory still holds every output at its exact pre-task
	// value and every input at its fenced value, and running the task again —
	// even a non-idempotent in-place kernel — reproduces the lost bits.
	Losable bool
}

// Table is a crash-tolerant workload, as the planner sees it.
type Table[T any] struct {
	Phases []Phase[T]
	// Assign deals tasks (in the order given) to live, the ascending current
	// members. It must be a pure function of its arguments and of the
	// handovers so far, so that every run under one schedule builds one
	// script.
	Assign func(tasks []T, live []int) map[int][]T
	// Order is the canonical order (cmp-style) lost tasks are repaired in.
	Order func(a, b T) int
	// Handover, when set, hears of every crash-stop — dead has left, live
	// remain — in ascending order of dead within an episode. A workload with
	// static roles moves the dead node's roles here.
	Handover func(dead int, live []int)
	// Reset says a death owes the cluster a classification reset before
	// anything else runs: the dead owner's tasks get new writers, and a
	// writer handover under live co-holders would let Pyxis notifications
	// race host-side fence sweeps. The reset — flush, drop, clear full-maps,
	// performed while every thread is parked — reduces the handover to a
	// first touch on virgin classification. A workload whose handovers never
	// touch a live holder's classification entry leaves it false.
	Reset bool
}

// Body is one barrier-delimited body of a script: per live node, the tasks
// it runs. A nil Assign is an idle body; Reset marks the barrier ending the
// body as a cluster-wide classification reset; Repair marks a re-run of lost
// tasks.
type Body[T any] struct {
	Reset, Repair bool
	Assign        map[int][]T
}

// Plan precomputes the script of tab's program under det's fault schedule.
// Each iteration emits the body ending at the next barrier episode, chosen
// in this order of priority:
//
//   - a partition window idles, cluster-wide. The isolated side diverts at
//     the barrier and skips its fences; idling both sides makes the skipped
//     fences vacuous — the minority's last work was fenced at its last
//     attended barrier, and nobody writes anything the other side could miss
//     until after the heal. Deaths still strike at idle episodes (crash wins
//     over isolation, see health.Fate), though an idle body has nothing to
//     lose.
//   - a pending reset is next, so it lands on the first episode every member
//     attends: only such a barrier resets every cache. Any death re-arms it —
//     including one at the reset episode itself, where a reset at which every
//     attending member dies-and-restarts fires nothing (nobody arrives to
//     vote) and needs no special case.
//   - lost tasks are repaired before the program moves on, from home truth
//     (see Phase.Losable). Repairers can themselves die, so repairs repeat
//     until a body survives.
//   - otherwise the next program phase runs.
//
// A node that dies and restarts keeps its slot: it rejoins within the episode
// it died at, with wiped caches, and picks up work like any survivor. Plan
// fails if the schedule ever leaves nobody alive with work still owed, or
// never lets the program finish.
func Plan[T any](det *health.Detector, tab Table[T]) ([]Body[T], error) {
	var (
		walk     = det.NewWalk()
		script   []Body[T]
		lost     []T // tasks a death took, awaiting repair
		resetDue bool
	)
	limit := 1000 + 10*len(tab.Phases)
	for next := 0; next < len(tab.Phases) || len(lost) > 0 || resetDue; {
		live := walk.Members()
		if len(live) == 0 {
			return nil, fmt.Errorf("recovery: episode %d: every node is dead", walk.Episode())
		}
		if len(script) > limit {
			return nil, fmt.Errorf("recovery: script not converging after %d bodies (episode %d)", len(script), walk.Episode())
		}
		var body Body[T]
		losable := true
		switch {
		case walk.InWindow():
		case resetDue:
			resetDue = false
			body.Reset = true
		case len(lost) > 0:
			body = Body[T]{Repair: true, Assign: tab.Assign(lost, live)}
			lost = nil
		default:
			body.Assign = tab.Assign(tab.Phases[next].Tasks, live)
			losable = tab.Phases[next].Losable
			next++
		}
		script = append(script, body)
		died, left := walk.Step()
		for _, n := range died {
			if losable {
				lost = append(lost, body.Assign[n]...)
			}
		}
		resetDue = resetDue || tab.Reset && len(died) > 0
		if tab.Handover != nil {
			for _, n := range left {
				tab.Handover(n, walk.Members())
			}
		}
		slices.SortFunc(lost, tab.Order)
	}
	return script, nil
}

// Outcome is the membership side of a run's result, read from the detector.
type Outcome struct {
	Epoch    int64 // final membership epoch
	Deaths   int   // crash transitions
	Suspects int   // partition suspect transitions
	// History is every transition with its virtual time; Decisions is the
	// same sequence without the times. Decisions replay for any workload
	// (verdicts are serialized at the member barrier); History replays only
	// where virtual time does, i.e. where no NIC ever has two clients.
	History, Decisions string
}

func outcome(det *health.Detector) Outcome {
	o := Outcome{Epoch: det.Epoch(), History: det.HistoryString(), Decisions: det.DecisionHistoryString()}
	for _, tr := range det.History() {
		switch tr.Kind {
		case "crash":
			o.Deaths++
		case "suspect":
			o.Suspects++
		}
	}
	return o
}

// Run executes script on c with one thread per node and returns the
// makespan, the membership outcome and the first error. worker is called
// once per thread and returns the kernel that thread runs its tasks with.
// The barrier after each body is the safe point: a crash-stop unwinds the
// thread there, a crash-restart returns from it with the node's volatile
// state wiped, a parked node returns from it after the heal. A thread whose
// task fails keeps attending every barrier, with no further work, so the run
// still terminates and the cluster's invariants are still checked.
func Run[T any](c *core.Cluster, script []Body[T], worker func(*core.Thread) func(T) error) (sim.Time, Outcome, error) {
	errs := make([]error, c.Cfg.Nodes+1)
	makespan := c.Run(1, func(th *core.Thread) {
		do := worker(th)
		for _, body := range script {
			for _, task := range body.Assign[th.Node] {
				if errs[th.Node] == nil {
					errs[th.Node] = do(task)
				}
			}
			if body.Reset {
				th.InitDone()
			} else {
				th.Barrier()
			}
		}
	})
	errs[c.Cfg.Nodes] = c.CheckInvariants()
	return makespan, outcome(c.Health), errors.Join(errs...)
}

// Replay checks the chaos contract on one workload: run(nil) is the
// fault-free baseline, and two runs under plan must both reproduce its
// answer (recovery) and agree with each other on everything replayed keeps
// of a result (deterministic replay). What replays is the caller's to say: a
// workload that saturates NICs zeroes its makespan, one whose classification
// races are benign keeps only the answer. It returns the first faulty run.
func Replay[R comparable](run func(*fault.Plan) (R, error), plan fault.Plan, answer func(R) uint64, replayed func(R) R) (R, error) {
	base, err := run(nil)
	if err != nil {
		return base, fmt.Errorf("fault-free baseline: %w", err)
	}
	f1, err := run(&plan)
	if err != nil {
		return f1, fmt.Errorf("faulty run (%s): %w", plan, err)
	}
	if answer(f1) != answer(base) {
		return f1, fmt.Errorf("faulty run (%s) diverged from fault-free: digest %016x vs %016x", plan, answer(f1), answer(base))
	}
	f2, err := run(&plan)
	if err != nil {
		return f1, fmt.Errorf("faulty replay (%s): %w", plan, err)
	}
	if replayed(f1) != replayed(f2) {
		return f1, fmt.Errorf("replay not deterministic under %s:\n  run1 %+v\n  run2 %+v", plan, replayed(f1), replayed(f2))
	}
	return f1, nil
}
