package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testArena(t *testing.T, size int64) *Arena {
	t.Helper()
	s := NewSpace(2, size+1<<16, 4096, Interleaved)
	return NewArena(s, size)
}

func TestArenaAllocFree(t *testing.T) {
	a := testArena(t, 1<<16)
	x, err := a.Alloc(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := a.Alloc(200, 64)
	if err != nil {
		t.Fatal(err)
	}
	if y%64 != 0 {
		t.Fatalf("alignment broken: %d", y)
	}
	if x+100 > y && y+200 > x {
		// overlap check (y is after x here by construction, but be strict)
		if x < y+200 && y < x+100 {
			t.Fatal("allocations overlap")
		}
	}
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(y); err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != 1<<16 {
		t.Fatalf("free bytes = %d after freeing everything", a.FreeBytes())
	}
	if a.Fragments() != 1 {
		t.Fatalf("arena not coalesced: %d fragments", a.Fragments())
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := testArena(t, 4096)
	if _, err := a.Alloc(8192, 0); err == nil {
		t.Fatal("oversized allocation succeeded")
	}
	x, err := a.Alloc(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1, 0); err == nil {
		t.Fatal("allocation from a full arena succeeded")
	}
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(4096, 0); err != nil {
		t.Fatalf("arena did not recover after free: %v", err)
	}
}

func TestArenaDoubleFree(t *testing.T) {
	a := testArena(t, 4096)
	x, _ := a.Alloc(64, 0)
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(x); err == nil {
		t.Fatal("double free not detected")
	}
	if err := a.Free(x + 8); err == nil {
		t.Fatal("free of interior pointer not detected")
	}
}

func TestArenaBadArgs(t *testing.T) {
	a := testArena(t, 4096)
	if _, err := a.Alloc(0, 0); err == nil {
		t.Fatal("zero-size alloc succeeded")
	}
	if _, err := a.Alloc(8, 3); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
}

// Property: any sequence of allocs and frees keeps allocations disjoint,
// conserves bytes, and fully coalesces when everything is freed.
func TestArenaRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := testArena(t, 1<<16)
		type alloc struct {
			addr Addr
			size int64
		}
		var live []alloc
		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := int64(rng.Intn(1000) + 1)
				addr, err := a.Alloc(size, 8)
				if err != nil {
					continue // exhausted is fine
				}
				for _, l := range live {
					if addr < l.addr+Addr(l.size) && l.addr < addr+Addr(size) {
						return false // overlap
					}
				}
				if addr < a.Base() || addr+Addr(size) > a.Base()+Addr(a.Size()) {
					return false // out of bounds
				}
				live = append(live, alloc{addr, size})
			} else {
				i := rng.Intn(len(live))
				if a.Free(live[i].addr) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			// Conservation: free + live == capacity.
			var liveBytes int64
			for _, l := range live {
				liveBytes += l.size
			}
			if a.FreeBytes()+liveBytes != a.Size() {
				return false
			}
		}
		for _, l := range live {
			if a.Free(l.addr) != nil {
				return false
			}
		}
		return a.Fragments() == 1 && a.FreeBytes() == a.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkArenaAllocFree measures the dynamic allocator's host-side cost (no
// ledger row covers the arena).
func BenchmarkArenaAllocFree(b *testing.B) {
	a := NewArena(NewSpace(1, 16<<20, 4096, Interleaved), 8<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := a.Alloc(256, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(x); err != nil {
			b.Fatal(err)
		}
	}
}
