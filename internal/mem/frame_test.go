package mem

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// A frame handed back comes out again whole, unboxed and uncleared: a
// Put/Get pair allocates nothing, and the frame keeps its last user's bytes.
func TestFrameRecycledAsIs(t *testing.T) {
	f := GetFrame(512)
	if len(f) != 512 || cap(f) != 512 {
		t.Fatalf("GetFrame(512) has len %d, cap %d", len(f), cap(f))
	}
	f[0], f[511] = 7, 9
	PutFrame(f)
	g := GetFrame(512)
	if &g[0] != &f[0] || g[0] != 7 || g[511] != 9 || len(g) != 512 {
		t.Fatal("the frame handed back was not handed out again as it was")
	}
	if a := testing.AllocsPerRun(100, func() { PutFrame(GetFrame(512)) }); a != 0 {
		t.Fatalf("a recycled frame cost %.1f allocations, want 0", a)
	}
	PutFrame(nil) // ignored
	PutFrame(g)
}

// Frames of different sizes never mix, and a size that is no page size is
// refused.
func TestFrameSizesApart(t *testing.T) {
	PutFrame(GetFrame(1024))
	if f := GetFrame(2048); len(f) != 2048 {
		t.Fatalf("GetFrame(2048) returned %d bytes", len(f))
	}
	for _, size := range []int{0, -4096, 3000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GetFrame(%d) did not panic", size)
				}
			}()
			GetFrame(size)
		}()
	}
}

// A home page's frame may have been anything before — another cluster's
// page, cached copy or twin — but the first write of a page still finds it
// zero wherever it does not write. Free hands back the frame of every page
// that was written and leaves the space reading as never written.
func TestFrameHomePagesClearedAndReturned(t *testing.T) {
	EmptyFrames() // the frames below are the only ones
	old := NewSpace(2, 8*4096, 4096, Interleaved)
	junk := bytes.Repeat([]byte{0xA5}, 4096)
	for p := 0; p < 4; p++ {
		old.WritePageFull(p, junk)
	}
	old.Free()
	if allocated(old, 0) || !bytes.Equal(readPage(old, 0), make([]byte, 4096)) {
		t.Fatal("a page of the closed space still has its frame")
	}
	s := NewSpace(2, 8*4096, 4096, Interleaved)
	data, twin := make([]byte, 4096), make([]byte, 4096)
	data[9] = 3
	s.ApplyDiff(5, data, twin)
	if got := readPage(s, 5); !bytes.Equal(got, data) {
		t.Fatalf("first diff into a recycled frame: byte 0 = %#x, byte 9 = %d", got[0], got[9])
	}
	s.HomeBytes(6)[1] = 1
	if got := readPage(s, 6); got[0] != 0 || got[1] != 1 || got[4095] != 0 {
		t.Fatal("HomeBytes handed out a recycled frame uncleared")
	}
	held := []*byte{&s.HomeBytes(5)[0], &s.HomeBytes(6)[0]}
	s.Free()
	if s.Chunks() != 0 {
		t.Fatalf("Free kept %d chunks of the page table", s.Chunks())
	}
	back := []*byte{&GetFrame(4096)[0], &GetFrame(4096)[0]}
	if !slices.Contains(back, held[0]) || !slices.Contains(back, held[1]) {
		t.Fatal("Free did not hand back the frames of the pages written")
	}
}

// Frames handed back stay for the next GetFrame across garbage collections:
// after two collections, taking 64 frames back takes the 64 handed back, so
// it makes none. (A count of allocated bytes would also count the runtime's
// own allocations, which under load read 5 248 bytes while no other goroutine
// ran.)
func TestFramesSurviveCollections(t *testing.T) {
	const n, size = 64, 4096
	fs := make([][]byte, n)
	for i := range fs {
		fs[i] = GetFrame(size)
	}
	held := make([]*byte, n)
	for i, f := range fs {
		held[i] = unsafe.SliceData(f)
		PutFrame(f)
	}
	clear(fs)
	runtime.GC()
	runtime.GC()
	for i := range fs {
		fs[i] = GetFrame(size)
		if !slices.Contains(held, unsafe.SliceData(fs[i])) {
			t.Fatalf("frame %d taken after two collections is a new one, not one of the %d handed back before them", i, n)
		}
	}
	for _, f := range fs {
		PutFrame(f)
	}
}

func readPage(s *Space, p int) []byte {
	b := make([]byte, s.PageSize)
	s.ReadPage(p, b)
	return b
}
