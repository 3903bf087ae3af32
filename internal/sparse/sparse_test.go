package sparse

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

type cell struct {
	idx   int // set by the init hook: the element's own index
	inits int // how many times the hook prepared this element
	v     atomic.Int64
}

func initCells(base int, chunk []cell) {
	for j := range chunk {
		chunk[j].idx = base + j
		chunk[j].inits++
	}
}

// published lists the bases and lengths of the chunks that exist.
func published[T any](a *Array[T]) (bases, lens []int) {
	a.Chunks(func(base int, chunk []T) {
		bases = append(bases, base)
		lens = append(lens, len(chunk))
	})
	return bases, lens
}

// Many goroutines first-touch the same and neighbouring indices at once: each
// chunk is published exactly once, every goroutine gets the same address for
// the same index, and the elements everyone sees were prepared by exactly one
// run of the init hook. Run under -race.
func TestConcurrentFirstTouch(t *testing.T) {
	const n, workers = 1000, 16
	for round := 0; round < 20; round++ {
		var hookRuns atomic.Int64
		a := Make(n, func(base int, chunk []cell) {
			hookRuns.Add(1)
			initCells(base, chunk)
		})
		// Indices around two chunk boundaries plus the short last chunk.
		idx := []int{0, 1, 62, 63, 64, 65, 127, 128, 129, 960, 999}
		got := make([][]*cell, workers)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				for _, i := range idx {
					c := a.At(i)
					c.v.Add(1)
					got[w] = append(got[w], c)
				}
			}()
		}
		start.Done()
		wg.Wait()
		for w := 1; w < workers; w++ {
			if !slices.Equal(got[w], got[0]) {
				t.Fatalf("round %d: worker %d saw different element addresses", round, w)
			}
		}
		for k, i := range idx {
			c := got[0][k]
			if c != a.Peek(i) || c != a.At(i) {
				t.Fatalf("round %d: element %d moved after publication", round, i)
			}
			if c.idx != i || c.inits != 1 || c.v.Load() != workers {
				t.Fatalf("round %d: element %d = {idx %d, inits %d, v %d}, want {%d, 1, %d}",
					round, i, c.idx, c.inits, c.v.Load(), i, workers)
			}
		}
		bases, lens := published(&a)
		if !slices.Equal(bases, []int{0, 64, 128, 960}) || !slices.Equal(lens, []int{64, 64, 64, 40}) {
			t.Fatalf("round %d: published chunks at %v with lengths %v", round, bases, lens)
		}
		if r := hookRuns.Load(); r < 4 || r > 4*workers {
			t.Fatalf("round %d: init hook ran %d times for 4 chunks and %d racers", round, r, workers)
		}
	}
}

func TestPeekUntouchedIsNilAndFree(t *testing.T) {
	a := Make[cell](300, nil)
	a.At(70)
	for _, i := range []int{0, 63, 128, 299} {
		if a.Peek(i) != nil {
			t.Fatalf("Peek(%d) of an untouched chunk is not nil", i)
		}
	}
	if a.Peek(64) == nil || a.Peek(127) == nil {
		t.Fatal("Peek misses elements of the touched chunk")
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Peek(0); a.Peek(70); a.Peek(299) }); allocs != 0 {
		t.Fatalf("Peek allocated %.1f times per run", allocs)
	}
	if bases, _ := published(&a); !slices.Equal(bases, []int{64}) {
		t.Fatalf("Peek published chunks: %v", bases)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.At(70) }); allocs != 0 {
		t.Fatalf("At of a published chunk allocated %.1f times per run", allocs)
	}
}

func TestChunksYieldsTouchedInOrder(t *testing.T) {
	a := Make(1000, initCells)
	for _, i := range []int{999, 5, 640, 6, 130} {
		a.At(i)
	}
	var seen []int
	a.Chunks(func(base int, chunk []cell) {
		seen = append(seen, base)
		for j := range chunk {
			if chunk[j].idx != base+j {
				t.Fatalf("chunk at %d: element %d carries index %d", base, j, chunk[j].idx)
			}
			if &chunk[j] != a.Peek(base+j) {
				t.Fatalf("chunk at %d: element %d is not the one Peek returns", base, j)
			}
		}
	})
	if !slices.Equal(seen, []int{0, 128, 640, 960}) {
		t.Fatalf("Chunks visited %v", seen)
	}
}

// Lengths below one chunk, one short of, equal to and one past a multiple.
func TestAwkwardLengths(t *testing.T) {
	for _, n := range []int{1, 3, 63, 64, 65, 128, 129} {
		a := Make(n, initCells)
		for i := n - 1; i >= 0; i-- {
			if c := a.At(i); c.idx != i {
				t.Fatalf("n=%d: At(%d) carries index %d", n, i, c.idx)
			}
		}
		total := 0
		_, lens := published(&a)
		for _, l := range lens {
			total += l
		}
		if total != n || len(lens) != (n+63)/64 {
			t.Fatalf("n=%d: chunks of lengths %v", n, lens)
		}
		for _, bad := range []int{-1, n, n + 64} {
			for name, f := range map[string]func(int) *cell{"At": a.At, "Peek": a.Peek} {
				if !panics(func() { f(bad) }) {
					t.Fatalf("n=%d: %s(%d) did not panic", n, name, bad)
				}
			}
		}
	}
	empty := Make[cell](0, nil)
	empty.Chunks(func(int, []cell) { t.Fatal("an empty array has a chunk") })
	if !panics(func() { Make[cell](-1, nil) }) {
		t.Fatal("Make accepted a negative length")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
