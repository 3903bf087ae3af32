package argo_test

// Chaos-litmus matrix (Cygnus III): every litmus pattern from
// litmus_test.go re-runs under a set of representative fault shapes —
// crash-stop and crash-restart at the barrier safe point, crash-stop at
// the lock and flag safe points, a symmetric partition, and a one-way cut
// — across every classification mode the pattern supports. The pattern's
// happens-before assertions run in EVERY round, including the rounds after
// the fault heals, so the matrix checks that recovery (volatile-state
// wipe, excise/rejoin, suspect/heal) never costs an edge the memory model
// promises.
//
// The fault always lands on a bystander "victim" node: the highest node id
// participates in the barriers but performs no data operations, so the
// pattern nodes' edges must survive purely by virtue of the membership
// machinery — not because the faulty node's work was retried. The victim
// is also the only node the cut or crash ever touches, which keeps the
// pattern's data (small allocations land on low pages homed at low nodes
// under the interleaved policy) out of the fault's blast radius.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"argo"
	"argo/internal/coherence"
	"argo/internal/fault"
)

const (
	// chaosRounds rounds per pattern; the fault strikes in round
	// chaosRound, so rounds chaosRound+2 .. chaosRounds-1 assert the
	// pattern's edges strictly after recovery completes.
	chaosRounds = 6
	chaosRound  = 2
)

// chaosLitmusCase is one fault shape of the matrix. arm is the plan's
// scripted entry, a spec key whose value takes the victim and ep, the
// episode of the victim's first barrier in round chaosRound (patterns with
// several barriers per round strike later in absolute episodes, same round). aux,
// when set, builds the victim's per-round side operation — the sync op
// that delivers a lock or flag safe-point crash.
type chaosLitmusCase struct {
	name   string
	points fault.SafePoint
	dies   bool   // victim's thread never finishes (crash-stop)
	arm    string // format of a script key: victim, then ep
	aux    func(c *argo.Cluster) func(th *argo.Thread, round int)
	check  func(t *testing.T, c *argo.Cluster, victim, nodes int)
}

func wantVictimDead(t *testing.T, c *argo.Cluster, victim, nodes int) {
	t.Helper()
	if c.Health.Alive(victim) || c.Health.LiveCount() != nodes-1 {
		t.Fatalf("victim n%d not excised: alive=%v live=%d",
			victim, c.Health.Alive(victim), c.Health.LiveCount())
	}
	h := c.Health.HistoryString()
	for _, want := range []string{
		fmt.Sprintf("crash(n%d)", victim),
		fmt.Sprintf("excise(n%d)", victim),
	} {
		if !strings.Contains(h, want) {
			t.Fatalf("history missing %q: %q", want, h)
		}
	}
	if strings.Contains(h, "rejoin") {
		t.Fatalf("crash-stop victim rejoined: %q", h)
	}
}

func wantVictimHealed(t *testing.T, c *argo.Cluster, victim, nodes int) {
	t.Helper()
	if !c.Health.Alive(victim) || c.Health.LiveCount() != nodes {
		t.Fatalf("victim n%d not back: alive=%v live=%d",
			victim, c.Health.Alive(victim), c.Health.LiveCount())
	}
	h := c.Health.HistoryString()
	for _, want := range []string{
		fmt.Sprintf("suspect(n%d)", victim),
		fmt.Sprintf("heal(n%d)", victim),
	} {
		if !strings.Contains(h, want) {
			t.Fatalf("history missing %q: %q", want, h)
		}
	}
	if strings.Contains(h, "excise") {
		t.Fatalf("partition excised a live node: %q", h)
	}
	if got := c.Health.Epoch(); got != 1 {
		t.Fatalf("epoch %d after one suspect/heal cycle, want 1", got)
	}
}

var chaosLitmusCases = []chaosLitmusCase{
	{
		name:  "crash-stop-at-barrier",
		dies:  true,
		arm:   "crashat=%d@%d",
		check: wantVictimDead,
	},
	{
		name: "crash-restart-at-barrier",
		arm:  "restartat=%d@%d",
		check: func(t *testing.T, c *argo.Cluster, victim, nodes int) {
			t.Helper()
			if !c.Health.Alive(victim) || c.Health.LiveCount() != nodes {
				t.Fatalf("restarted victim n%d not back: alive=%v live=%d",
					victim, c.Health.Alive(victim), c.Health.LiveCount())
			}
			h := c.Health.HistoryString()
			for _, want := range []string{
				fmt.Sprintf("crash(n%d)", victim),
				fmt.Sprintf("excise(n%d)", victim),
				fmt.Sprintf("rejoin(n%d)", victim),
			} {
				if !strings.Contains(h, want) {
					t.Fatalf("history missing %q: %q", want, h)
				}
			}
			if got := c.Health.Epoch(); got != 2 {
				t.Fatalf("epoch %d after excise+rejoin, want 2", got)
			}
		},
	},
	{
		// The victim takes an auxiliary lock in the doomed round and
		// unwinds at the acquire safe point, before the critical section.
		name:   "crash-stop-at-lock",
		points: fault.SafeLock,
		dies:   true,
		arm:    "crashat=%d@%d",
		aux: func(c *argo.Cluster) func(th *argo.Thread, round int) {
			mu := argo.NewMutex(c, 0)
			return func(th *argo.Thread, round int) {
				if round == chaosRound {
					mu.Lock(th)
					mu.Unlock(th)
				}
			}
		},
		check: wantVictimDead,
	},
	{
		// The victim waits on an auxiliary flag nobody ever signals; the
		// scripted crash fires at Wait entry, before the thread parks.
		name:   "crash-stop-at-flag",
		points: fault.SafeFlag,
		dies:   true,
		arm:    "crashat=%d@%d",
		aux: func(c *argo.Cluster) func(th *argo.Thread, round int) {
			f := argo.NewFlag(c, 0)
			return func(th *argo.Thread, round int) {
				if round == chaosRound {
					f.Wait(th)
					panic("chaos litmus: doomed waiter survived its flag safe point")
				}
			}
		},
		check: wantVictimDead,
	},
	{
		name:  "symmetric-partition",
		arm:   "cutat=%d@%d:2",
		check: wantVictimHealed,
	},
	{
		// partcut=victim>0: only the directed link victim->0 is severed,
		// only the source parks and is suspected; the target must appear
		// nowhere in the membership history.
		name: "one-way-cut",
		arm:  "cutat=%d>0@%d:2",
		check: func(t *testing.T, c *argo.Cluster, victim, nodes int) {
			t.Helper()
			wantVictimHealed(t, c, victim, nodes)
			if h := c.Health.HistoryString(); strings.Contains(h, "suspect(n0)") {
				t.Fatalf("one-way cut suspected its target: %q", h)
			}
		},
	},
}

// chaosLitmusCluster builds the pattern's cluster with the case's safe
// points armed, scripts the fault on the victim (the highest node), and
// returns the victim's per-round side operation.
func chaosLitmusCluster(mode coherence.Mode, cc chaosLitmusCase, nodes, epPerRound int) (
	*argo.Cluster, int, func(th *argo.Thread, round int)) {
	cfg := smallConfig(nodes, mode)
	victim := nodes - 1
	plan, err := argo.ParseFaultPlan(fmt.Sprintf(cc.arm, victim, epPerRound*chaosRound+1) + ",seed=1")
	if err != nil {
		panic(err)
	}
	plan.CrashPoints = cc.points
	cfg.Faults = &plan
	c := argo.MustNewCluster(cfg)
	aux := func(*argo.Thread, int) {}
	if cc.aux != nil {
		aux = cc.aux(c)
	}
	return c, victim, aux
}

// runChaosLitmus drives body for chaosRounds rounds on every thread and
// verifies the case's membership outcome plus the finisher count: every
// pattern node's thread must complete all rounds, and the victim's exactly
// when the fault lets it live.
func runChaosLitmus(t *testing.T, c *argo.Cluster, cc chaosLitmusCase,
	victim, nodes int, body func(th *argo.Thread, round int)) {
	t.Helper()
	var finished atomic.Int64
	c.Run(1, func(th *argo.Thread) {
		for r := 0; r < chaosRounds; r++ {
			body(th, r)
		}
		finished.Add(1)
	})
	want := int64(nodes)
	if cc.dies {
		want--
	}
	if got := finished.Load(); got != want {
		t.Fatalf("%d threads finished, want %d", got, want)
	}
	cc.check(t, c, victim, nodes)
}

// forChaosMatrix runs f once per (mode, case) cell of the matrix.
func forChaosMatrix(t *testing.T, modes []coherence.Mode,
	f func(t *testing.T, mode coherence.Mode, cc chaosLitmusCase)) {
	for _, mode := range modes {
		for _, cc := range chaosLitmusCases {
			t.Run(mode.String()+"/"+cc.name, func(t *testing.T) {
				f(t, mode, cc)
			})
		}
	}
}

// Message passing through a barrier, with a faulty bystander. The reader
// must see BOTH the round's data and its ready word after every barrier —
// stale values from the previous round would mean the membership
// reconfiguration dropped the epoch's downgrade/invalidate fences.
func TestChaosLitmusMessagePassingBarrier(t *testing.T) {
	forChaosMatrix(t, litmusModes, func(t *testing.T, mode coherence.Mode, cc chaosLitmusCase) {
		c, victim, aux := chaosLitmusCluster(mode, cc, 3, 2)
		xs := c.AllocI64(2)
		runChaosLitmus(t, c, cc, victim, 3, func(th *argo.Thread, r int) {
			salt := int64(100 * r)
			switch th.Node {
			case 0:
				th.SetI64(xs, 0, salt+41) // data
				th.SetI64(xs, 1, salt+1)  // ready
			case victim:
				aux(th, r)
			}
			th.Barrier()
			if th.Node == 1 {
				ready, data := th.GetI64(xs, 1), th.GetI64(xs, 0)
				if ready != salt+1 || data != salt+41 {
					panic(fmt.Sprintf("MP violation round %d under %s: ready=%d data=%d",
						r, cc.name, ready, data))
				}
			}
			// Close the round: the reads above must not race the next
			// round's writes, which start in the interval after this fence.
			th.Barrier()
		})
	})
}

// Message passing through a per-round flag while the bystander fails. The
// acquire on Wait must carry the round's full payload in every round.
func TestChaosLitmusMessagePassingFlag(t *testing.T) {
	forChaosMatrix(t, litmusModes, func(t *testing.T, mode coherence.Mode, cc chaosLitmusCase) {
		c, victim, aux := chaosLitmusCluster(mode, cc, 3, 1)
		xs := c.AllocI64(8)
		fs := make([]interface {
			Signal(*argo.Thread)
			Wait(*argo.Thread)
		}, chaosRounds)
		for r := range fs {
			fs[r] = argo.NewFlag(c, 0)
		}
		runChaosLitmus(t, c, cc, victim, 3, func(th *argo.Thread, r int) {
			salt := int64(100 * r)
			switch th.Node {
			case 0:
				for i := 0; i < 8; i++ {
					th.SetI64(xs, i, salt+int64(i))
				}
				fs[r].Signal(th)
			case 1:
				fs[r].Wait(th)
				for i := 0; i < 8; i++ {
					if got := th.GetI64(xs, i); got != salt+int64(i) {
						panic(fmt.Sprintf("flag MP violation round %d word %d under %s: %d",
							r, i, cc.name, got))
					}
				}
			case victim:
				aux(th, r)
			}
			th.Barrier()
		})
	})
}

// Mutex message passing: two pattern nodes keep a sequence and its shadow
// consistent through per-round critical sections; no update may be lost
// across the fault.
func TestChaosLitmusMessagePassingMutex(t *testing.T) {
	const per = 10
	forChaosMatrix(t, litmusModes, func(t *testing.T, mode coherence.Mode, cc chaosLitmusCase) {
		c, victim, aux := chaosLitmusCluster(mode, cc, 3, 1)
		xs := c.AllocI64(2) // [sequence, shadow]
		mu := argo.NewMutex(c, 0)
		runChaosLitmus(t, c, cc, victim, 3, func(th *argo.Thread, r int) {
			if th.Node == victim {
				aux(th, r)
			} else {
				for k := 0; k < per; k++ {
					mu.Lock(th)
					seq := th.GetI64(xs, 0)
					shadow := th.GetI64(xs, 1)
					if shadow != seq*3 {
						panic(fmt.Sprintf("mutex MP violation round %d under %s: seq=%d shadow=%d",
							r, cc.name, seq, shadow))
					}
					th.SetI64(xs, 0, seq+1)
					th.SetI64(xs, 1, (seq+1)*3)
					mu.Unlock(th)
				}
			}
			th.Barrier()
		})
		if got := c.DumpI64(xs)[0]; got != int64(2*per*chaosRounds) {
			t.Fatalf("lost updates under %s: seq=%d, want %d", cc.name, got, 2*per*chaosRounds)
		}
	})
}

// Transitivity across the fault: the edge must compose through T1's epoch
// in every round, even the round whose three barriers the victim misses.
func TestChaosLitmusTransitivity(t *testing.T) {
	forChaosMatrix(t, litmusModes, func(t *testing.T, mode coherence.Mode, cc chaosLitmusCase) {
		c, victim, aux := chaosLitmusCluster(mode, cc, 4, 3)
		xs := c.AllocI64(2)
		runChaosLitmus(t, c, cc, victim, 4, func(th *argo.Thread, r int) {
			salt := int64(100 * r)
			if th.Node == victim {
				aux(th, r)
			} else if th.Node == 0 {
				th.SetI64(xs, 0, salt+7)
			}
			th.Barrier()
			if th.Node == 1 {
				if got := th.GetI64(xs, 0); got != salt+7 {
					panic(fmt.Sprintf("hop 1 lost the write round %d under %s: %d", r, cc.name, got))
				}
				th.SetI64(xs, 1, salt+8)
			}
			th.Barrier()
			if th.Node == 2 {
				y, x := th.GetI64(xs, 1), th.GetI64(xs, 0)
				if y != salt+8 || x != salt+7 {
					panic(fmt.Sprintf("transitivity violation round %d under %s: x=%d y=%d",
						r, cc.name, x, y))
				}
			}
			th.Barrier()
		})
	})
}

// Delegation order under faults (PS3 only, like the fault-free litmus):
// sections stay atomic and ordered while the bystander crashes or parks.
func TestChaosLitmusDelegationOrder(t *testing.T) {
	const per = 10
	forChaosMatrix(t, []coherence.Mode{coherence.ModePS3},
		func(t *testing.T, mode coherence.Mode, cc chaosLitmusCase) {
			c, victim, aux := chaosLitmusCluster(mode, cc, 4, 1)
			xs := c.AllocI64(1)
			l := argo.NewHQDL(c)
			runChaosLitmus(t, c, cc, victim, 4, func(th *argo.Thread, r int) {
				if th.Node == victim {
					aux(th, r)
				} else {
					last := int64(-1)
					for k := 0; k < per; k++ {
						var seen int64
						l.DelegateWait(th, func(h *argo.Thread) {
							seen = h.GetI64(xs, 0)
							h.SetI64(xs, 0, seen+1)
						})
						if seen <= last {
							panic(fmt.Sprintf("delegation order violation round %d under %s: %d after %d",
								r, cc.name, seen, last))
						}
						last = seen
					}
				}
				th.Barrier()
			})
			if got := c.DumpI64(xs)[0]; got != int64(3*per*chaosRounds) {
				t.Fatalf("counter under %s = %d, want %d", cc.name, got, 3*per*chaosRounds)
			}
		})
}

// IRIW with single-owner variables (PS3 only, like the fault-free litmus):
// both readers must agree on both round-salted values after each barrier,
// whichever order they read them in, in every round of every fault shape.
func TestChaosLitmusIRIWUnderDRF(t *testing.T) {
	forChaosMatrix(t, []coherence.Mode{coherence.ModePS3},
		func(t *testing.T, mode coherence.Mode, cc chaosLitmusCase) {
			c, victim, aux := chaosLitmusCluster(mode, cc, 5, 2)
			xs := c.AllocI64(1024) // x and y on different pages, different owners
			runChaosLitmus(t, c, cc, victim, 5, func(th *argo.Thread, r int) {
				salt := int64(100 * r)
				switch th.Node {
				case 0:
					th.SetI64(xs, 0, salt+1)
				case 1:
					th.SetI64(xs, 512, salt+2)
				case victim:
					aux(th, r)
				}
				th.Barrier()
				switch th.Node {
				case 2:
					x, y := th.GetI64(xs, 0), th.GetI64(xs, 512)
					if x != salt+1 || y != salt+2 {
						panic(fmt.Sprintf("IRIW reader 2 round %d under %s: x=%d y=%d", r, cc.name, x, y))
					}
				case 3:
					y, x := th.GetI64(xs, 512), th.GetI64(xs, 0)
					if x != salt+1 || y != salt+2 {
						panic(fmt.Sprintf("IRIW reader 3 round %d under %s: x=%d y=%d", r, cc.name, x, y))
					}
				}
				// Close the round: keep the readers' loads out of the next
				// round's write interval.
				th.Barrier()
			})
		})
}
