package fabric

import (
	"testing"

	"argo/internal/fault"
	"argo/internal/sim"
)

// The shifted backoff must clamp to the cap for every attempt count — in
// particular the shift may not overflow int64 and slide back under the cap
// as a negative duration (which sim.Proc.Advance panics on).
func TestBackoffDelayClampsLargeAttempts(t *testing.T) {
	prev := sim.Time(0)
	for attempt := 0; attempt <= 130; attempt++ {
		d := backoffDelay(attempt)
		if d < 0 {
			t.Fatalf("attempt %d: negative backoff %d (shift overflow)", attempt, d)
		}
		if d > fault.BackoffCap {
			t.Fatalf("attempt %d: backoff %d exceeds cap", attempt, d)
		}
		if d < prev {
			t.Fatalf("attempt %d: backoff %d not monotone (prev %d)", attempt, d, prev)
		}
		prev = d
	}
	if got := backoffDelay(0); got != fault.Backoff {
		t.Fatalf("attempt 0: got %d, want the base %d", got, fault.Backoff)
	}
	if got := backoffDelay(1); got != 2*fault.Backoff {
		t.Fatalf("attempt 1: got %d, want twice the base %d", got, fault.Backoff)
	}
	if got := backoffDelay(63); got != fault.BackoffCap {
		t.Fatalf("attempt 63: got %d, want the cap %d", got, fault.BackoffCap)
	}
	if got := backoffDelay(1 << 20); got != fault.BackoffCap {
		t.Fatalf("huge attempt: got %d, want the cap %d", got, fault.BackoffCap)
	}
}

// Backoff (the charging wrapper) must never panic on extreme attempts.
func TestBackoffChargeAtAttempt63(t *testing.T) {
	f := MustNew(sim.Topology{Nodes: 2, Sockets: 1, CoresPerSocket: 1}, DefaultParams())
	p := f.Topo.NewProc(0, 0)
	f.Backoff(p, 63)
	f.Backoff(p, 64)
	f.Backoff(p, 1<<30)
	if p.Now() != 3*fault.BackoffCap {
		t.Fatalf("clock advanced %d, want %d", p.Now(), 3*fault.BackoffCap)
	}
}
