// Command argo-stress hammers the Carina protocol with randomized
// data-race-free programs: random cluster shapes, page sizes, cache
// geometries, write-buffer sizes, classification modes, home policies and
// the diff-suppression extension. Every program verifies that all reads
// observe exactly the values happens-before dictates and that the
// protocol's structural invariants hold afterwards.
//
//	argo-stress -n 200 -seed 42
//
// Chaos mode (-chaos) arms the whole fault stack from one spec — transient
// Corvus rates, Cygnus crash-stops and crash-restarts, Cygnus II partial
// partitions, Cygnus III one-way cuts and safe-point arming — and re-runs
// every program under a sweep of transient rates, asserting that answers
// stay bit-identical to the fault-free run and that the deterministic
// workloads replay bit-exactly:
//
//	argo-stress -n 50 -seed 42 -chaos drop=0.01,stall=5us,seed=42
//
// A crash or partition rate in the spec additionally sweeps Cygnus crash-stop and crash-restart node failures
// over the crash-tolerant ring workload under the full spec, asserting that
// survivors repair the dead nodes' shards to the bit-exact fault-free
// answer and that crash schedules, membership-epoch histories and makespans
// replay identically:
//
//	argo-stress -seed 42 -chaos crash=0.02
//
// It also runs the crash-tolerant LU factorization under the full spec,
// asserting the same recovery guarantee with mid-factorization deaths,
// restarts and healing partitions — symmetric (partcut=K) or asymmetric
// one-way (partcut=a>b; quote the spec, the shell wants the '>'); LU
// replays compare membership decisions and digests rather than makespans
// (its NIC contention makes virtual times scheduling-dependent, see
// DESIGN.md §13):
//
//	argo-stress -n 0 -seed 42 -chaos 'crash=0.03,crashrestart=on,partition=0.1,partdur=2,partcut=1>4'
//
// -digests prints one "answers-digest:" line per program (the final home
// memory's FNV-64a). At a fixed -seed these lines are comparable across
// invocations — with and without -chaos — so a diff proves bit-identical
// answers end to end.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"argo/internal/cli"
	"argo/internal/fault"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/lu"
)

// scaled multiplies the plan's fault rates by s (capped at 1), leaving the
// magnitudes and the seed alone.
func scaled(p fault.Plan, s float64) fault.Plan {
	cap1 := func(r float64) float64 {
		r *= s
		if r > 1 {
			return 1
		}
		return r
	}
	p.Drop = cap1(p.Drop)
	p.Delay = cap1(p.Delay)
	p.StallP = cap1(p.StallP)
	p.AtomicFail = cap1(p.AtomicFail)
	return p
}

func main() {
	n := flag.Int("n", 100, "number of random programs")
	seed := flag.Int64("seed", 0, "base seed (0: derive from time)")
	verbose := flag.Bool("v", false, "print every program's parameters")
	chaosFlag := cli.ChaosFlag("unified chaos spec, e.g. drop=0.01,crash=0.02,partition=0.1,partdur=2,crashpoints=lock+flag,seed=42 (enables chaos mode)")
	digests := flag.Bool("digests", false, "print one answers-digest line per program")
	views := cli.ViewFlags(false)
	prof := cli.ProfileFlags()
	flag.Parse()

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	defer prof.Start()()
	// The programs build their clusters from their own parameters, fault
	// plans included; the hook hands each of those configs the view sinks.
	cli.HookConfigs(views.Sinks(), nil)
	spec := *chaosFlag.Spec
	var plan fault.Plan
	chaos := spec != ""
	if chaos {
		plan = *chaosFlag.Plan()
	}
	// The full plan (crash, partition, scripts, safe points) runs only on
	// the crash-tolerant planner workloads below: random DRF programs are
	// neither crash- nor partition-tolerant (a dead writer's epoch is simply
	// gone), so their sweeps see the transient rates alone.
	crashRate := plan.Crash
	luPlan := plan
	plan = fault.Plan{Seed: plan.Seed, Drop: plan.Drop, Delay: plan.Delay, Jitter: plan.Jitter,
		StallP: plan.StallP, Stall: plan.Stall, AtomicFail: plan.AtomicFail}

	if luPlan.Armed() {
		// Crash sweep: the crash-tolerant ring under crash-stop and
		// crash-restart, at fractions and multiples of the requested rate,
		// stacked on top of the full spec — transient rates, partitions
		// (symmetric or one-way) and all. The sweep scales only the rate,
		// and crashrestart decides only drawn deaths: with no rate every
		// cell is one schedule, so the ring runs once.
		scales, restarts := []float64{0.5, 1, 2}, []bool{false, true}
		if crashRate == 0 {
			scales, restarts = []float64{1}, []bool{false}
		}
		fmt.Printf("argo-stress: crash mode, ring sweep at base rate %g (seed %d)\n", crashRate, *seed)
		for _, s := range scales {
			for _, restart := range restarts {
				p := luPlan
				p.Crash = crashRate * s
				if p.Crash > 1 {
					p.Crash = 1
				}
				p.CrashRestart = restart
				rep, err := drf.ReplayCheck(drf.DefaultRing(6), p)
				if err != nil {
					fmt.Fprintf(os.Stderr, "\nCRASH FAIL at rate x%g restart=%v: %v\n", s, restart, err)
					fmt.Fprintf(os.Stderr, "reproduce with: argo-stress -seed %d -chaos '%s'\n", *seed, p.String())
					os.Exit(1)
				}
				fmt.Printf("  crash x%-4g restart=%-5v ok: deaths=%d suspects=%d epochs=%d makespan=%d digest=%016x\n",
					s, restart, rep.Deaths, rep.Suspects, rep.Epoch, rep.Makespan, rep.Digest)
			}
		}
	}

	if luPlan.Armed() {
		// Chaos LU: mid-factorization crash-stops, crash-restarts and healing
		// partial partitions under the full spec, on the repair-planner LU.
		p := luPlan
		p.Crash = crashRate
		fmt.Printf("argo-stress: chaos LU, plan %s (seed %d)\n", p.String(), *seed)
		rep, err := lu.ReplayCheck(lu.DefaultCrashParams(), p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\nCHAOS LU FAIL: %v\n", err)
			fmt.Fprintf(os.Stderr, "reproduce with: argo-stress -n 0 -seed %d -chaos '%s'\n", *seed, p.String())
			os.Exit(1)
		}
		fmt.Printf("  chaos-lu ok: deaths=%d suspects=%d epochs=%d makespan=%d digest=%016x\n",
			rep.Deaths, rep.Partitions, rep.Epoch, rep.Makespan, rep.Digest)
	}

	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()

	// Sweep points: fractions and multiples of the requested rates.
	sweep := []float64{0.25, 1, 4}
	if chaos {
		fmt.Printf("argo-stress: chaos mode, %d random DRF programs (seed %d, plan %s, rate sweep %v)\n",
			*n, *seed, plan.String(), sweep)
		// Determinism first: the ring workload must replay bit-exactly —
		// same injected schedule, same answers, same makespan — at every
		// sweep point.
		for _, s := range sweep {
			p := scaled(plan, s)
			rep, err := drf.ReplayCheck(drf.DefaultRing(4), p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "\nREPLAY FAIL at rate x%g: %v\n", s, err)
				os.Exit(1)
			}
			fmt.Printf("  replay x%-4g ok: makespan=%d faults=%d retries=%d\n",
				s, rep.Makespan, rep.Stats.FaultsInjected, rep.Stats.FaultRetries)
		}
	} else {
		fmt.Printf("argo-stress: %d random DRF programs (seed %d)\n", *n, *seed)
	}

	for i := 0; i < *n; i++ {
		pr := drf.Random(rng)
		pr.UseFlags = i%5 == 4
		if *verbose {
			fmt.Printf("  #%d: %+v\n", i, pr)
		}
		pr.Faults = nil
		rep, err := drf.RunReport(pr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\nFAIL at program %d: %v\n", i, err)
			fmt.Fprintf(os.Stderr, "reproduce with: argo-stress -n %d -seed %d\n", i+1, *seed)
			os.Exit(1)
		}
		if chaos {
			for _, s := range sweep {
				p := scaled(plan, s)
				pr.Faults = &p
				frep, err := drf.RunReport(pr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "\nFAIL at program %d under %s: %v\n", i, p.String(), err)
					fmt.Fprintf(os.Stderr, "reproduce with: argo-stress -n %d -seed %d -chaos %s\n", i+1, *seed, spec)
					os.Exit(1)
				}
				if frep.Digest != rep.Digest {
					fmt.Fprintf(os.Stderr, "\nFAIL at program %d: answers diverged under %s: digest %016x, fault-free %016x\n",
						i, p.String(), frep.Digest, rep.Digest)
					fmt.Fprintf(os.Stderr, "reproduce with: argo-stress -n %d -seed %d -chaos %s\n", i+1, *seed, spec)
					os.Exit(1)
				}
			}
		}
		if *digests {
			fmt.Printf("answers-digest: %4d %016x\n", i, rep.Digest)
		}
		if !*verbose && !*digests && i%10 == 9 {
			fmt.Printf("  %d/%d ok\n", i+1, *n)
		}
	}
	if chaos {
		fmt.Printf("all %d programs bit-identical to fault-free at %d fault rates in %v\n",
			*n, len(sweep), time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("all %d programs verified in %v\n", *n, time.Since(start).Round(time.Millisecond))
	}

	// The views superimpose every program run above (virtual clocks all start
	// at zero): they exercise the analyzers under stress rather than profiling
	// one workload.
	if err := views.Render(os.Stdout); err != nil {
		cli.Fatal(err)
	}
}
