package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan asserts the spec grammar's two contracts: ParsePlan never
// panics — malformed specs (including mangled one-way cuts like
// "partcut=1>") must come back as errors — and any plan it accepts renders
// to a canonical form that is a fixed point: re-parsing the rendered string
// reproduces the identical rendering. String∘ParsePlan is idempotent rather
// than the identity because inert magnitudes whose rate is zero (stall
// without stallp, partdur without partition, ...) are dropped from the
// canonical form. The seeds that spell a removed key (slownode, slowfactor
// and the recovery knobs timeout, retries, backoff, backoffcap) stay: they
// exercise the unknown-key rejection path, as does crashminepoch.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"drop=0.01,delay=0.02,jitter=1ms,stall=5us,stallp=0.1",
		"crash=0.05,crashrestart=on,crashpoints=lock+flag",
		"crashat=1@2+4@6,restartat=2@4,seed=3",
		"restartat=3@1+0@9,crashat=2@2",
		"cutat=1.5@5:2+3>0@8:1,partition=0.1",
		"cutat=3>0@8:1+2.1@7:3",
		"crashat=1@2,restartat=1@3",
		"cutat=1>1@2:1",
		"cutat=1@2:0",
		"cutat=@1:1",
		"crashat=1@",
		"cutat=1.@2:1",
		"crashminepoch=2",
		"partition=0.1,partdur=2,partcut=2,seed=9",
		"partition=0.2,partcut=1>4,seed=7",
		"slownode=1,slowfactor=2.5,atomicfail=0.01",
		"timeout=10us,retries=3,backoff=1us,backoffcap=64us",
		"partcut=1>1",
		"partcut=->",
		"partcut=9999999999999999999>0",
		"drop=nan",
		"slowfactor=inf",
		"stall=1e300h",
		"seed=",
		"=,=,==",
		"drop",
		",,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return // rejected is fine; panicking is the only failure mode here
		}
		s1 := p.String()
		q, err := ParsePlan(s1)
		if err != nil {
			t.Fatalf("rendered plan %q does not re-parse: %v", s1, err)
		}
		if s2 := q.String(); s2 != s1 {
			t.Fatalf("String∘ParsePlan not a fixed point for %q: %q -> %q", spec, s1, s2)
		}
		// The canonical form must preserve the armed schedule: what the
		// plan injects cannot change across a render/parse round trip.
		if p.Enabled() != q.Enabled() {
			t.Fatalf("round trip changed Enabled for %q: %v -> %v", spec, p.Enabled(), q.Enabled())
		}
		if p.Crash != q.Crash || p.Partition != q.Partition ||
			p.CrashPoints != q.CrashPoints || p.Seed != q.Seed ||
			!reflect.DeepEqual(p.Crashes, q.Crashes) || !reflect.DeepEqual(p.Cuts, q.Cuts) {
			t.Fatalf("round trip changed the fault schedule for %q:\n  %s\n  %s", spec, s1, q.String())
		}
		// Sub-keys render only under their armed rate (an inert
		// crashrestart or partcut is dropped from the canonical form), so
		// they must survive exactly when the rate is non-zero.
		if p.Crash > 0 && p.CrashRestart != q.CrashRestart {
			t.Fatalf("round trip lost crashrestart for %q: %s", spec, s1)
		}
		if p.Partition > 0 && (p.PartitionOneWay != q.PartitionOneWay ||
			p.PartitionFrom != q.PartitionFrom || p.PartitionTo != q.PartitionTo) {
			t.Fatalf("round trip changed the cut shape for %q:\n  %s\n  %s", spec, s1, q.String())
		}
	})
}
