package fault

import "argo/internal/sim"

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

// Injector hands out deterministic fault verdicts. A nil *Injector is valid
// and never injects, so callers need no nil checks on hot paths beyond the
// one pointer test. It counts nothing: the fabric counts the faults it
// delivers in the issuing node's stats and on the probe spine.
type Injector struct {
	plan Plan
}

// NewInjector builds an injector for the plan. It returns nil when the plan
// injects nothing, so the fault-free fast path stays a nil check.
func NewInjector(p Plan) *Injector {
	if !p.Enabled() {
		return nil
	}
	return &Injector{plan: p}
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
// Attempts at or beyond the retry budget (maxRetries) always deliver cleanly
// (the model's reliable escalation path), so every retry loop terminates and
// workload answers stay exact. Safe on nil (always a clean delivery).
func (in *Injector) Draw(issuer int, cl Class, target int, key uint64, attempt int) Verdict {
	if in == nil || attempt >= maxRetries {
		return Verdict{Deliver: true}
	}
	p := &in.plan
	id := identity(p.Seed, issuer, cl, target, key, attempt)
	if p.Drop > 0 && unit(id^saltDrop) < p.Drop {
		return Verdict{}
	}
	v := Verdict{Deliver: true}
	if p.AtomicFail > 0 && cl == ClassAtomic && unit(id^saltAtomic) < p.AtomicFail {
		v.AtomicFail = true
	}
	if p.Delay > 0 && p.Jitter > 0 && unit(id^saltDelay) < p.Delay {
		v.Delay = sim.Time(unit(id^saltJitter) * float64(p.Jitter))
	}
	if p.StallP > 0 && p.Stall > 0 && unit(id^saltStall) < p.StallP {
		v.Stall = p.Stall
	}
	return v
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
