// Hot-spot profiles: per-page and per-lock event attribution, reported as
// top-K tables by argo-top and embedded in the metrics.json dump.
//
// Pages are attributed on protocol events only (misses, writebacks,
// invalidations, classification notifies, evictions) — never on cache hits —
// so the profile's cost is proportional to protocol traffic, which is
// exactly the traffic worth profiling. Lock stats are atomic fields. Both are
// fed by Suite.Observe.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PageStat accumulates protocol events for one page.
type PageStat struct {
	Page          int   `json:"page"`
	ReadMisses    int64 `json:"read_misses"`
	WriteMisses   int64 `json:"write_misses"`
	Writebacks    int64 `json:"writebacks"`
	Invalidations int64 `json:"invalidations"`
	Notifies      int64 `json:"notifies"` // classification churn (P→S, NW→SW, SW→MW)
	Evictions     int64 `json:"evictions"`
}

// TotalPageActivity is the default top-K ranking: all events summed.
func TotalPageActivity(s PageStat) int64 {
	return s.ReadMisses + s.WriteMisses + s.Writebacks + s.Invalidations + s.Notifies + s.Evictions
}

// PageProfile attributes protocol events to pages. Safe for concurrent use;
// one mutex guards the map, which only protocol events (not hits) touch.
// A nil *PageProfile ignores all attributions.
type PageProfile struct {
	mu sync.Mutex
	m  map[int]*PageStat
}

// newPageProfile creates an empty page profile.
func newPageProfile() *PageProfile {
	return &PageProfile{m: map[int]*PageStat{}}
}

// bump attributes one event to page, in the PageStat field field selects.
func (pp *PageProfile) bump(page int, field func(*PageStat) *int64) {
	if pp == nil {
		return
	}
	pp.mu.Lock()
	s, ok := pp.m[page]
	if !ok {
		s = &PageStat{Page: page}
		pp.m[page] = s
	}
	*field(s)++
	pp.mu.Unlock()
}

// TopK returns the k highest-scoring pages, descending (ties by page).
func (pp *PageProfile) TopK(k int, score func(PageStat) int64) []PageStat {
	if k <= 0 {
		return nil
	}
	pp.mu.Lock()
	views := make([]PageStat, 0, len(pp.m))
	for _, s := range pp.m {
		views = append(views, *s)
	}
	pp.mu.Unlock()
	sort.Slice(views, func(i, j int) bool {
		si, sj := score(views[i]), score(views[j])
		if si != sj {
			return si > sj
		}
		return views[i].Page < views[j].Page
	})
	if len(views) > k {
		views = views[:k]
	}
	return views
}

// lockCounters accumulates contention statistics for one lock instance, in
// atomics; a nil *lockCounters ignores updates.
type lockCounters struct {
	Name      string
	Acquires  atomic.Int64
	WaitNs    atomic.Int64 // acquire call → lock held (incl. acquire fence)
	HeldNs    atomic.Int64 // lock held → release done (incl. release fence)
	Local     atomic.Int64 // node-local handovers / delegations
	Remote    atomic.Int64 // cross-node handovers
	Delegated atomic.Int64 // sections executed by a helper
}

// acquired records one acquisition that waited waitNs.
func (s *lockCounters) acquired(waitNs int64) {
	if s == nil {
		return
	}
	s.Acquires.Add(1)
	s.WaitNs.Add(waitNs)
}

// released records heldNs of hold time.
func (s *lockCounters) released(heldNs int64) {
	if s != nil {
		s.HeldNs.Add(heldNs)
	}
}

// LockStatView is the JSON/report form of a LockStat.
type LockStatView struct {
	Name      string  `json:"name"`
	Acquires  int64   `json:"acquires"`
	WaitNs    int64   `json:"wait_ns"`
	HeldNs    int64   `json:"held_ns"`
	MeanWait  float64 `json:"mean_wait_ns"`
	Local     int64   `json:"local_handovers"`
	Remote    int64   `json:"remote_handovers"`
	Delegated int64   `json:"delegated_sections"`
}

// TotalLockActivity is the default top-K ranking: total wait time.
func TotalLockActivity(s LockStatView) int64 { return s.WaitNs }

// LockProfile registers lock instances and reports the most contended.
type LockProfile struct {
	mu    sync.Mutex
	stats []*lockCounters
	seq   map[string]int
}

// newLockProfile creates an empty lock profile.
func newLockProfile() *LockProfile {
	return &LockProfile{seq: map[string]int{}}
}

// register creates a LockStat named kind (suffixed #n to keep instances
// distinct).
func (lp *LockProfile) register(kind string) *lockCounters {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	n := lp.seq[kind]
	lp.seq[kind] = n + 1
	s := &lockCounters{Name: fmt.Sprintf("%s#%d", kind, n)}
	lp.stats = append(lp.stats, s)
	return s
}

// TopK returns the k highest-scoring locks, descending (ties by name).
func (lp *LockProfile) TopK(k int, score func(LockStatView) int64) []LockStatView {
	if k <= 0 {
		return nil
	}
	lp.mu.Lock()
	views := make([]LockStatView, 0, len(lp.stats))
	for _, s := range lp.stats {
		v := LockStatView{
			Name: s.Name, Acquires: s.Acquires.Load(),
			WaitNs: s.WaitNs.Load(), HeldNs: s.HeldNs.Load(),
			Local: s.Local.Load(), Remote: s.Remote.Load(),
			Delegated: s.Delegated.Load(),
		}
		if v.Acquires > 0 {
			v.MeanWait = float64(v.WaitNs) / float64(v.Acquires)
		}
		views = append(views, v)
	}
	lp.mu.Unlock()
	sort.Slice(views, func(i, j int) bool {
		si, sj := score(views[i]), score(views[j])
		if si != sj {
			return si > sj
		}
		return views[i].Name < views[j].Name
	})
	if len(views) > k {
		views = views[:k]
	}
	return views
}
