package drf

// Chaos mode: the random DRF programs run under a Corvus fault plan, and
// the checks split along what the platform can actually guarantee.
//
// Recovery soundness — answers are bit-identical to fault-free and every
// coherence check passes — holds for EVERY program under any plan; RunChaos
// asserts it on arbitrary random programs.
//
// Deterministic replay — the same fault seed produces the same injected
// schedule, retry counts and makespan — additionally requires the program's
// protocol-operation multiset to be independent of goroutine scheduling.
// Random programs do not all qualify: concurrent first-touches race on the
// Pyxis classification (by design; classification affects performance,
// never answers), and NIC arbitration resolves genuine saturation in real
// arrival order (see sim.Resource). The ring (ring.go) is the program that
// is schedule-independent by construction, and ReplayCheck asserts bit-exact
// replay of makespan, digest and schedule on it.

import (
	"fmt"

	"argo/internal/fault"
	"argo/internal/recovery"
)

// RunChaos runs one program once fault-free and twice under plan, and
// checks recovery soundness: all three runs pass every coherence check and
// produce bit-identical final home memory (the answer is all of a random
// program's Report that replays). The returned Report is the first faulty
// run's.
func RunChaos(pr Params, plan fault.Plan) (Report, error) {
	run := RunReport
	if pr.UseFlags {
		run = RunFlagsReport
	}
	rep, err := recovery.Replay(func(p *fault.Plan) (Report, error) {
		pr.Faults = p
		return run(pr)
	}, plan, func(r Report) uint64 { return r.Digest }, func(r Report) Report { return Report{Digest: r.Digest} })
	if err != nil {
		return rep, fmt.Errorf("%w (params %+v)", err, pr)
	}
	return rep, nil
}
