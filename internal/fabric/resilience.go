package fabric

import (
	"math/bits"

	"argo/internal/fault"
	"argo/internal/probe"
	"argo/internal/sim"
)

// This file holds the requester-side recovery machinery shared by the
// fabric's reissuing operations and exported to the coherence layer, which
// reissues posted writebacks and registration bursts itself.

// Backoff charges p capped exponential backoff before a reissue:
// min(fault.Backoff << attempt, fault.BackoffCap). Exported for the coherence
// layer's writeback and registration reissues, so that their waiting shows
// up in the same counters.
func (f *Fabric) Backoff(p *sim.Proc, attempt int) {
	b := backoffDelay(attempt)
	t0 := p.Now()
	p.Advance(b)
	f.Obs.Since(p, t0, probe.Backoff, int64(attempt), 0)
	f.nodes[p.Node].FaultBackoffNs.Add(int64(b))
}

// backoffDelay is the backoff before reissue attempt+1. The shift count is
// clamped first: fault.Backoff << attempt overflows int64 (going negative,
// sliding under the cap) long before large attempt counts.
func backoffDelay(attempt int) sim.Time {
	if attempt >= bits.Len64(uint64(fault.BackoffCap/fault.Backoff)) {
		return fault.BackoffCap
	}
	return min(fault.Backoff<<attempt, fault.BackoffCap)
}

// lost charges the requester's detection timeout for an operation that
// vanished in flight and counts the injected drop plus the forthcoming
// reissue (the injector's escalation guarantee means one always follows).
func (f *Fabric) lost(p *sim.Proc, cl fault.Class) {
	t0 := p.Now()
	p.Advance(fault.Timeout)
	st := f.nodes[p.Node]
	st.FaultsInjected.Add(1)
	st.FaultRetries.Add(1)
	f.Obs.Since(p, t0, probe.OpLost, int64(cl), 0)
}

// CountRetries counts k reissues that were not caused by a drop seen by lost
// (transient atomic failure, writeback reissue from a flush). Exported for
// the coherence layer's writeback and registration reissue loops.
func (f *Fabric) CountRetries(p *sim.Proc, cl fault.Class, k int) {
	if k <= 0 {
		return
	}
	f.nodes[p.Node].FaultRetries.Add(int64(k))
	f.Obs.Since(p, p.Now(), probe.Retry, int64(cl), int64(k))
}

// injected counts one fault delivered to an operation of p. A burst item that
// vanished is counted here and nowhere else: nobody waits out a timeout for
// it, the caller's fence or eviction finds out.
func (f *Fabric) injected(p *sim.Proc, code int64) {
	f.nodes[p.Node].FaultsInjected.Add(1)
	f.Obs.Since(p, p.Now(), probe.Fault, code, 0)
}

// noteInjected records delivered-but-faulty verdicts (delay, stall,
// transient atomic failure) in the issuer's counters. Drops are counted at
// the lost and burst sites.
func (f *Fabric) noteInjected(p *sim.Proc, v fault.Verdict) {
	if f.FI == nil || (v.Delay == 0 && v.Stall == 0 && !v.AtomicFail) {
		return
	}
	if v.Delay > 0 {
		f.injected(p, probe.FaultDelay)
	}
	if v.Stall > 0 {
		f.injected(p, probe.FaultStall)
	}
	if v.AtomicFail {
		f.injected(p, probe.FaultAtomicFail)
	}
}

// recovered reports an operation of class cl that p first issued at t0 and
// that succeeded only now, after reissues.
func (f *Fabric) recovered(p *sim.Proc, t0 sim.Time, cl fault.Class, reissues int) {
	if reissues > 0 {
		f.Obs.Since(p, t0, probe.Recovered, int64(cl), 0)
	}
}
