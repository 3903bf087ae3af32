package sim

import "runtime"

// PointKind is why a simulated thread offers the host the turn. On a host
// with few CPUs a thread would otherwise run its whole loop before any other
// starts, so no lock queue forms and no two write streams meet in a write
// buffer. Answers do not depend on the yields; virtual makespans do: beside a
// kind is virt_makespan_ms with → without its yields (benchmark/run.sh
// --seconds 3 --trace 0, alternating pairs, 2-CPU host).
type PointKind uint8

const (
	PageOpen PointKind = iota // a write miss opened a page: the node's other write streams interleave (lu_bulk 134.4–135.7 → 209.2–210.1, drf_scatter 383.5–384.1 → 421–660)
	Acquired                  // a native, DSM-ticket or UPC lock was taken: contenders arrive and queue while the section runs
	Serve                     // a delegation helper is about to inspect its ring: delegators enqueue while it is busy
	OpDone                    // a priority-queue benchmark operation ended: the other threads take their turn (pq_hqdl 52.8–57.4 → 248–277, pq_mutex 126.8–127.0 → 127.4–127.7)
)

// Point offers the host the turn; the one policy, free-running, yields at every kind.
func (p *Proc) Point(k PointKind) { runtime.Gosched() }
