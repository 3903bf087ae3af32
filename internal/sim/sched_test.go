package sim

import (
	"runtime"
	"sync"
	"testing"
)

// TestPointYields checks that the free-running policy hands the host the turn
// at every kind: on one host CPU, two procs that pass a Point between log
// entries take turns instead of each running its loop to the end. Dropping
// the yield of one kind changes no answer, only virtual makespans, so no
// other test notices.
func TestPointYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const steps = 100
	for _, tc := range []struct {
		name string
		k    PointKind
	}{{"PageOpen", PageOpen}, {"Acquired", Acquired}, {"Serve", Serve}, {"OpDone", OpDone}} {
		var mu sync.Mutex
		var log []int
		NewGroup([]*Proc{{}, {}}).Run(func(i int, p *Proc) {
			for range steps {
				mu.Lock()
				log = append(log, i)
				mu.Unlock()
				p.Point(tc.k)
			}
		})
		switches := 0
		for j := 1; j < len(log); j++ {
			if log[j] != log[j-1] {
				switches++
			}
		}
		if switches < steps {
			t.Errorf("%s: the procs took turns %d times in %d steps each; want at least %d", tc.name, switches, steps, steps)
		}
	}
}
