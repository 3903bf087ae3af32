package fault

import (
	"sync/atomic"

	"argo/internal/sim"
)

// Verdict is the injector's decision for one attempt of one operation.
type Verdict struct {
	// Deliver is false when the operation is lost in flight: the
	// requester sees nothing and must time out and reissue.
	Deliver bool
	// AtomicFail marks a delivered remote atomic that failed transiently
	// before taking effect; the requester pays the round trip and retries.
	AtomicFail bool
	// Delay is extra in-flight latency charged to the requester.
	Delay sim.Time
	// Stall is extra service time charged to the target NIC (congesting
	// every operation queued behind this one).
	Stall sim.Time
}

// Snapshot is a point-in-time copy of the injector's event counters.
type Snapshot struct {
	Drops       int64
	Delays      int64
	Stalls      int64
	AtomicFails int64
	Crashes     int64
}

// Injector hands out deterministic fault verdicts. A nil *Injector is valid
// and never injects, so callers need no nil checks on hot paths beyond the
// one pointer test.
type Injector struct {
	plan Plan

	drops       atomic.Int64
	delays      atomic.Int64
	stalls      atomic.Int64
	atomicFails atomic.Int64
	crashes     atomic.Int64
}

// NewInjector builds an injector for the plan (recovery knobs are
// normalized). It returns nil when the plan injects nothing, so the
// fault-free fast path stays a nil check.
func NewInjector(p Plan) *Injector {
	p.normalize()
	if !p.Enabled() {
		return nil
	}
	return &Injector{plan: p}
}

// Plan returns the normalized plan. Safe on nil (returns a default plan):
// recovery knobs like Timeout and MaxRetries are still meaningful when no
// faults are injected.
func (in *Injector) Plan() Plan {
	if in == nil {
		return DefaultPlan(0)
	}
	return in.plan
}

// Snapshot copies the event counters. Safe on nil.
func (in *Injector) Snapshot() Snapshot {
	if in == nil {
		return Snapshot{}
	}
	return Snapshot{
		Drops:       in.drops.Load(),
		Delays:      in.delays.Load(),
		Stalls:      in.stalls.Load(),
		AtomicFails: in.atomicFails.Load(),
		Crashes:     in.crashes.Load(),
	}
}

// NoteCrash counts one injected crash-stop failure. Crash verdicts come
// from Plan.CrashAt (a pure function, not a Draw), so the health layer
// reports them here for the run's fault snapshot. Safe on nil.
func (in *Injector) NoteCrash() {
	if in == nil {
		return
	}
	in.crashes.Add(1)
}

// Per-decision salts keep the drop / delay / stall / atomic-fail streams
// independent: an identity that is dropped is not automatically also
// delayed.
const (
	saltDrop   = 0x9e3779b97f4a7c15
	saltDelay  = 0xbf58476d1ce4e5b9
	saltStall  = 0x94d049bb133111eb
	saltAtomic = 0xd6e8feb86659fd93
	saltJitter = 0xa0761d6478bd642f
	saltCrash  = 0x8ebc6af09c88c6e3

	saltPartition = 0xe7037ed1a0b428db
)

// Draw decides the fate of one attempt of one operation. The decision is a
// pure function of (plan seed, issuer node, op class, target node, resource
// key, attempt): no counters, no host time, no scheduling dependence — the
// injected schedule is identical across runs of the same program and seed.
//
// Attempts at or beyond the plan's retry budget always deliver cleanly (the
// model's reliable escalation path), so every retry loop terminates and
// workload answers stay exact. Safe on nil (always a clean delivery).
func (in *Injector) Draw(issuer int, cl Class, target int, key uint64, attempt int) Verdict {
	if in == nil {
		return Verdict{Deliver: true}
	}
	p := &in.plan
	if attempt >= p.MaxRetries {
		return Verdict{Deliver: true}
	}
	id := identity(p.Seed, issuer, cl, target, key, attempt)
	v := Verdict{Deliver: true}
	if p.Drop > 0 && unit(id^saltDrop) < p.Drop {
		in.drops.Add(1)
		v.Deliver = false
		return v
	}
	if p.AtomicFail > 0 && cl == ClassAtomic && unit(id^saltAtomic) < p.AtomicFail {
		in.atomicFails.Add(1)
		v.AtomicFail = true
	}
	if p.Delay > 0 && p.Jitter > 0 && unit(id^saltDelay) < p.Delay {
		in.delays.Add(1)
		v.Delay = sim.Time(unit(id^saltJitter) * float64(p.Jitter))
	}
	if p.StallP > 0 && p.Stall > 0 && unit(id^saltStall) < p.StallP {
		in.stalls.Add(1)
		v.Stall = p.Stall
	}
	return v
}

// Scale applies the degraded-node multiplier to a NIC service time.
// Safe on nil.
func (in *Injector) Scale(node int, service sim.Time) sim.Time {
	if in == nil {
		return service
	}
	p := &in.plan
	if p.SlowFactor > 1 && node == p.SlowNode {
		return sim.Time(float64(service) * p.SlowFactor)
	}
	return service
}

// identity mixes the decision coordinates into one 64-bit value using a
// splitmix64-style finalizer over each coordinate.
func identity(seed int64, issuer int, cl Class, target int, key uint64, attempt int) uint64 {
	h := mix(uint64(seed))
	h = mix(h ^ uint64(issuer)<<1)
	h = mix(h ^ uint64(cl)<<8)
	h = mix(h ^ uint64(target)<<1)
	h = mix(h ^ key)
	h = mix(h ^ uint64(attempt)<<16)
	return h
}

// mix is the splitmix64 finalizer: a full-avalanche 64-bit permutation.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a hash to a uniform float64 in [0,1).
func unit(h uint64) float64 {
	return float64(mix(h)>>11) / float64(1<<53)
}
