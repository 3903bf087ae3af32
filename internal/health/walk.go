package health

import "slices"

// Fate is what one barrier episode holds for one member: the single place
// the crash and partition verdicts are combined. The member barrier (package
// core) classifies every thread and every expectation through it; Walk.Step,
// which advances the barrier's membership and the recovery planner's alike,
// needs only its death rows, which do not depend on the cut.
//
//	DiesAt          IsolatedAt   Fate      at the episode's barrier the node …
//	no              no           Lives     arrives, fences, leaves
//	no              yes          Parked    skips its fences and waits out the majority; caches intact
//	yes, restarts   either       Restarts  loses its volatile state, is excised and rejoins; keeps its slot
//	yes             either       Stops     loses its volatile state, is excised, leaves the membership
//
// Crash wins over isolation: a node that both dies and is cut off is dying,
// and a death scheduled inside a partition window still strikes.
type Fate int

const (
	Lives Fate = iota
	Parked
	Restarts
	Stops
)

// Fate returns node's fate at barrier episode ep. Pure, like the verdicts it
// combines.
func (d *Detector) Fate(node int, ep int64) Fate {
	switch dies, restart := d.plan.CrashAt(node, ep); {
	case dies && restart:
		return Restarts
	case dies:
		return Stops
	case slices.Contains(d.CutAt(ep).Iso, node):
		return Parked
	}
	return Lives
}

// Walk is the membership view advanced one barrier episode at a time against
// the detector's schedule. The member barrier steps one at every episode
// completion; the recovery planner steps another through the whole program
// before it runs. Both therefore hold the same members at every episode: a
// crash-restart keeps its slot (it rejoins within the episode it dies at), a
// crash-stop leaves at its death episode, a cut removes nobody.
type Walk struct {
	det     *Detector
	members []int // ascending; replaced, never edited, when somebody leaves
	ep      int64 // episodes stepped past
}

// NewWalk starts a walk before episode 1 with every node a member.
func (d *Detector) NewWalk() *Walk {
	w := &Walk{det: d, members: make([]int, d.nodes)}
	for n := range w.members {
		w.members[n] = n
	}
	return w
}

// Episode returns how many episodes the walk has stepped past.
func (w *Walk) Episode() int64 { return w.ep }

// Members returns the current members in ascending order. The slice is the
// walk's own and stays valid (and unchanged) across Step; do not modify it.
func (w *Walk) Members() []int { return w.members }

// InWindow reports whether the next episode lies inside a partition window,
// whether or not any node the cut isolates is still a member.
func (w *Walk) InWindow() bool { return len(w.det.CutAt(w.ep+1).Iso) > 0 }

// Parked returns the members the next episode's cut isolates, ascending.
func (w *Walk) Parked() []int {
	var out []int
	for _, n := range w.det.CutAt(w.ep + 1).Iso {
		if _, ok := slices.BinarySearch(w.members, n); ok {
			out = append(out, n)
		}
	}
	return out
}

// Step advances past the next episode and returns, ascending, the members
// that died at it and the subset of those that crash-stopped and so left.
func (w *Walk) Step() (died, left []int) {
	w.ep++
	for _, n := range w.members {
		// Fate's death rows: a death strikes whatever the cut says, so the
		// cut (a scan of the partition schedule) is not consulted.
		if dies, restart := w.det.plan.CrashAt(n, w.ep); dies {
			died = append(died, n)
			if !restart {
				left = append(left, n)
			}
		}
	}
	if len(left) > 0 {
		w.members = slices.DeleteFunc(slices.Clone(w.members), func(n int) bool {
			return slices.Contains(left, n)
		})
	}
	return died, left
}
