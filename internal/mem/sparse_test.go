package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// A seeded random walk over every reader and writer of home memory, on page
// counts below, at and around the chunk length and page sizes down to four
// bytes: the space answers exactly as a dense model that allocated every page
// up front, gives pages backing storage only when they are written and the
// page table chunks only when one of their pages is.
func TestMatchesDenseSpace(t *testing.T) {
	for _, g := range []struct{ npages, pageSize int }{
		{1, 4}, {3, 4}, {63, 8}, {64, 64}, {65, 4}, {130, 256}, {1000, 4},
	} {
		rng := rand.New(rand.NewSource(int64(g.npages*131 + g.pageSize)))
		s := NewSpace(3, int64(g.npages*g.pageSize), g.pageSize, Interleaved)
		if s.NPages != g.npages {
			t.Fatalf("%+v: NPages = %d", g, s.NPages)
		}
		ref := make([][]byte, g.npages)
		for p := range ref {
			ref[p] = make([]byte, g.pageSize)
		}
		written := make([]bool, g.npages)
		randPage := func() []byte {
			b := make([]byte, g.pageSize)
			rng.Read(b)
			return b
		}
		for step := 0; step < 3000; step++ {
			p := rng.Intn(g.npages)
			switch op := rng.Intn(100); {
			case op < 15:
				src := randPage()
				s.WritePageFull(p, src)
				copy(ref[p], src)
				written[p] = true
			case op < 45:
				// A diff against a twin: only the bytes that differ reach home.
				twin, data := randPage(), make([]byte, g.pageSize)
				copy(data, twin)
				for k := rng.Intn(g.pageSize + 1); k > 0; k-- {
					data[rng.Intn(g.pageSize)] = byte(rng.Intn(256))
				}
				var tx int
				if op < 30 {
					tx = s.ApplyDiff(p, data, twin)
				} else {
					tx, _ = s.Writeback(p, data, twin, nil)
				}
				if want := diffScan(nil, data, twin); tx != want {
					t.Fatalf("%+v step %d: diff of page %d sent %d bytes, want %d", g, step, p, tx, want)
				}
				for i := range data {
					if data[i] != twin[i] {
						ref[p][i] = data[i]
					}
				}
				written[p] = true
			case op < 50:
				data := randPage()
				if tx, full := s.Writeback(p, data, randPage(), func() bool { return true }); !full || tx != g.pageSize {
					t.Fatalf("%+v step %d: preferred full writeback sent %d bytes, full=%v", g, step, tx, full)
				}
				copy(ref[p], data)
				written[p] = true
			case op < 55:
				i := rng.Intn(g.pageSize)
				s.HomeBytes(p)[i]++
				ref[p][i]++
				written[p] = true
			case op < 80:
				got := bytes.Repeat([]byte{0xEE}, g.pageSize)
				s.ReadPage(p, got)
				if !bytes.Equal(got, ref[p]) {
					t.Fatalf("%+v step %d: ReadPage(%d) = %v, want %v", g, step, p, got, ref[p])
				}
			default:
				off := rng.Intn(g.pageSize)
				got := bytes.Repeat([]byte{0xEE}, rng.Intn(g.pageSize-off)+1)
				readPageAt(s, p, off, got)
				if !bytes.Equal(got, ref[p][off:off+len(got)]) {
					t.Fatalf("%+v step %d: ViewPageAt(%d, %d) = %v, want %v", g, step, p, off, got, ref[p][off:off+len(got)])
				}
			}
			if step%500 == 499 {
				wantChunks := map[int]bool{}
				for p, w := range written {
					if allocated(s, p) != w {
						t.Fatalf("%+v step %d: page %d allocated = %v, written = %v", g, step, p, !w, w)
					}
					if w {
						wantChunks[p/64] = true
					}
				}
				if s.Chunks() != len(wantChunks) {
					t.Fatalf("%+v step %d: %d page-table chunks exist, want %d", g, step, s.Chunks(), len(wantChunks))
				}
			}
		}
	}
}
