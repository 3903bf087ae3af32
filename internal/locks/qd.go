package locks

import (
	"argo/internal/fabric"
	"argo/internal/sim"
)

// QDLock is Queue Delegation locking (Klaftenegger, Sagonas, Winblad):
// instead of transferring the lock to each waiting thread, waiting threads
// transfer their critical sections to the lock holder. The thread that wins
// the lock word becomes the helper, opens a delegation queue, executes its
// own section and then drains delegated sections back to back — the
// migratory data stays in the helper's cache the whole time. Threads whose
// sections need no result detach immediately after delegating (Delegate);
// threads that need the result wait for it (DelegateWait). DelegateArg is
// the detached form for a section that takes one argument word.
type QDLock struct {
	q delegQueue[*sim.Proc]
}

// NewQDLock creates a QD lock over fabric f.
func NewQDLock(f *fabric.Fabric) *QDLock { return newQDLock(f, delegRing) }

// newQDLock creates a QD lock whose delegation ring is ring entries long.
func newQDLock(f *fabric.Fabric, ring int) *QDLock {
	return &QDLock{q: delegQueue[*sim.Proc]{fab: f, ring: make([]delegEntry[*sim.Proc], ring)}}
}

// Delegate submits section and detaches: the caller continues immediately
// after a successful delegation, possibly before the section has executed.
func (l *QDLock) Delegate(p *sim.Proc, section func(h *sim.Proc)) {
	l.delegate(p, delegEntry[*sim.Proc]{section: section}, false)
}

// DelegateArg is Delegate for a section that takes one argument word: the
// helper runs fn(h, arg). Built once, fn carries per-operation data without
// a closure allocated per call.
func (l *QDLock) DelegateArg(p *sim.Proc, fn func(h *sim.Proc, arg int64), arg int64) {
	l.delegate(p, delegEntry[*sim.Proc]{fn: fn, arg: arg}, false)
}

// DelegateWait submits section and blocks until it has executed; the
// caller's clock is advanced to the section's completion time.
func (l *QDLock) DelegateWait(p *sim.Proc, section func(h *sim.Proc)) {
	if e := l.delegate(p, delegEntry[*sim.Proc]{section: section}, true); e.done != nil {
		l.q.await(p, e)
	}
}

// DelegateAsync submits section and returns a wait function: the caller
// detaches, overlaps useful work, and invokes the wait when (and if) it
// needs the section's effects — the detached-execution mode of QD locking
// (the paper leaves exploiting it in applications as future work).
// The returned wait may be nil when the caller itself became the helper
// and the section has already executed.
func (l *QDLock) DelegateAsync(p *sim.Proc, section func(h *sim.Proc)) func(p *sim.Proc) {
	e := l.delegate(p, delegEntry[*sim.Proc]{section: section}, true)
	if e.done == nil {
		return nil
	}
	return func(p *sim.Proc) { l.q.await(p, e) }
}

func (l *QDLock) delegate(p *sim.Proc, e delegEntry[*sim.Proc], wait bool) delegEntry[*sim.Proc] {
	queued, helper := l.q.delegate(p, e, wait)
	if helper {
		l.q.serve(p, p, e)
		l.q.release(p)
	}
	return queued
}
