// Package locks implements the lock algorithms evaluated in the paper, in
// two families:
//
// Native locks synchronize threads of a single simulated machine and model
// the NUMA effects that motivate hierarchical locking: every handover
// charges the cache-line transfer between the previous and the next holder
// (same core, same socket, cross socket), and critical-section data is
// modeled as migratory (see MigratoryData). The family covers a plain
// pthread-style mutex, the NUMA-aware Cohort lock over FIFO queue locks, and
// Queue Delegation (QD) locking, where waiting threads
// hand their critical sections to the current lock holder, which executes
// them back to back while the data stays hot in its cache.
//
// DSM locks synchronize threads across the cluster through Argo. A generic
// lock ported to Argo must treat every acquire as an SI fence and every
// release as an SD fence — synchronization is a data race, and Carina must
// conservatively invalidate/downgrade around it. That is what DSMMutex and
// DSMCohortLock do, and it is exactly why they struggle: every critical
// section pays fences plus the refetch misses they cause. Vela's
// hierarchical queue delegation lock (HQDLock) instead batches critical
// sections on the node that holds the global lock: one SI when the node
// opens its delegation queue, one SD when it closes it, and no fences in
// between.
package locks

import (
	"sync"

	"argo/internal/fabric"
	"argo/internal/sim"
)

// NativeLock is a mutual-exclusion lock for threads of one machine.
type NativeLock interface {
	Lock(p *sim.Proc)
	Unlock(p *sim.Proc)
}

// holder tracks, under the protection of the lock it belongs to, when the
// lock became free in virtual time and which core released it last, so the
// next acquirer can be charged the right handover.
type holder struct {
	freeAt sim.Time
	node   int
	socket int
	core   int
	valid  bool
}

// acquired charges the caller for taking the lock: it serializes behind the
// previous holder and pays the cache-line handover. Must be called while
// holding the real lock.
func (h *holder) acquired(p *sim.Proc, f *fabric.Fabric) {
	p.AdvanceTo(h.freeAt)
	if h.valid {
		p.Advance(f.HandoverCost(p, h.node, h.socket, h.core))
	}
}

// released records the release point. Must be called while still holding
// the real lock.
func (h *holder) released(p *sim.Proc) {
	h.freeAt = p.Now()
	h.node, h.socket, h.core = p.Node, p.Socket, p.Core
	h.valid = true
}

// MigratoryData models the working set of a critical section: a data
// structure whose cache lines follow the lock around. Touch charges the
// executing thread for pulling lines cache lines from wherever they were
// last written, which is what makes distributed critical-section execution
// expensive and consolidated (delegated) execution cheap.
type MigratoryData struct {
	mu    sync.Mutex
	last  holder
	lines int
	base  sim.Time
}

// NewMigratoryData creates a working-set model of lines cache lines with a
// fixed base computation cost per touch.
func NewMigratoryData(lines int, base sim.Time) *MigratoryData {
	return &MigratoryData{lines: lines, base: base}
}

// Touch charges p for one critical section's worth of accesses to the data.
func (m *MigratoryData) Touch(p *sim.Proc, f *fabric.Fabric) {
	m.mu.Lock()
	var per sim.Time
	switch {
	case !m.last.valid:
		per = f.P.DRAMLatency // cold
	case m.last.node != p.Node:
		per = 2 * f.P.RemoteLatency
	case m.last.socket != p.Socket:
		per = f.P.SocketLatency
	case m.last.core != p.Core:
		per = f.P.LocalLatency
	default:
		per = f.P.CacheHit
	}
	m.last.node, m.last.socket, m.last.core, m.last.valid = p.Node, p.Socket, p.Core, true
	m.mu.Unlock()
	p.Advance(m.base + sim.Time(m.lines)*per)
}
