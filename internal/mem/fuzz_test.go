package mem

import (
	"bytes"
	"testing"
)

// FuzzDiffMerge feeds arbitrary base/update byte patterns through the
// twin/diff machinery. Against a home that equals the twin the merge must
// reproduce the update; against a home holding a third pattern (other nodes'
// bytes — false sharing) it must match the byte-wise reference exactly, in
// wire size and in every byte written or left alone. Both scans, the SIMD one
// and the Go one, are held to the reference on the whole pattern and on its
// longest prefix whose length is a multiple of 32. The seeds put runs on
// word, block and chunk edges and leave the length off all three.
func FuzzDiffMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 9, 3, 4}, byte(0))
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add(bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{7}, 100), byte(1))
	edge := bytes.Repeat([]byte{7}, 3*diffChunk+13)
	for _, i := range []int{0, 7, 8, diffChunk - 1, diffChunk, 2*diffChunk - 8, 2 * diffChunk, 3*diffChunk + 12} {
		edge[i] = 9
	}
	f.Add(bytes.Repeat([]byte{7}, 3*diffChunk+13), edge, byte(0xA5))
	f.Add(bytes.Repeat([]byte{7}, 2*diffChunk+5), bytes.Repeat([]byte{8}, 2*diffChunk+5), byte(0x5A))
	block := bytes.Repeat([]byte{7}, 4*32)
	for i := range block {
		// A run carried out of block 0 into block 1, one carried into the
		// all-changed block 2, and the last byte of block 3.
		if 20 <= i && i < 34 || 63 <= i && i < 96 || i == 127 {
			block[i] = 9
		}
	}
	f.Add(bytes.Repeat([]byte{7}, 4*32), block, byte(0x3C))
	f.Fuzz(func(t *testing.T, base, update []byte, fill byte) {
		n := len(base)
		if len(update) < n {
			n = len(update)
		}
		if n == 0 {
			return
		}
		base, update = base[:n], update[:n]
		s := NewSpace(1, 2*int64(n2pow(n)), n2pow(n), Interleaved)
		// Home starts as base; a cached copy with twin=base gets the
		// update written into it, then diffs back.
		copy(s.HomeBytes(0), base)
		tx := s.ApplyDiff(0, update, base)
		if !bytes.Equal(s.HomeBytes(0)[:n], update) {
			t.Fatalf("diff merge diverged:\nbase   %v\nupdate %v\nhome   %v", base, update, s.HomeBytes(0)[:n])
		}
		// Transmitted bytes must never exceed data + headers and must be
		// zero when nothing changed.
		if bytes.Equal(base, update) && tx != 0 {
			t.Fatalf("no-op diff transmitted %d bytes", tx)
		}
		if tx > 9*n {
			t.Fatalf("diff transmitted %d bytes for %d-byte page", tx, n)
		}
		if diffScan(nil, update, base) != tx {
			t.Fatal("the sizing scan disagrees with ApplyDiff")
		}
		// Page 1's home belongs to somebody else wherever the diff is silent.
		want := bytes.Repeat([]byte{fill}, n)
		if ref := refDiffRuns(want, update, base); ref != tx {
			t.Fatalf("wire size %d, byte-wise reference %d", tx, ref)
		}
		home := s.HomeBytes(1)
		for i := range home {
			home[i] = fill
		}
		if got := s.ApplyDiff(1, update, base); got != tx {
			t.Fatalf("same diff sized %d against another home, %d before", got, tx)
		}
		if !bytes.Equal(home[:n], want) {
			t.Fatalf("merge into a foreign home diverged from the reference:\nbase   %v\nupdate %v\nhome   %v\nwant   %v", base, update, home[:n], want)
		}
		for i := n; i < len(home); i++ {
			if home[i] != fill {
				t.Fatalf("byte %d past the diffed range clobbered", i)
			}
		}
		for _, m := range []int{n, n &^ 31} {
			ref := bytes.Repeat([]byte{fill}, m)
			tx := refDiffRuns(ref, update[:m], base[:m])
			for _, sc := range diffScans {
				if got := sc.scan(nil, update[:m], base[:m]); got != tx {
					t.Fatalf("%s scan of %d bytes sized %d, reference %d", sc.name, m, got, tx)
				}
				got := bytes.Repeat([]byte{fill}, m)
				if w := sc.scan(got, update[:m], base[:m]); w != tx || !bytes.Equal(got, ref) {
					t.Fatalf("%s scan of %d bytes sent %d (reference %d):\nhome %v\nwant %v", sc.name, m, w, tx, got, ref)
				}
			}
		}
	})
}

// n2pow rounds n up to a power of two (valid page size).
func n2pow(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FuzzArena drives the allocator with an op tape: each byte either
// allocates (high bit clear, size = byte+1) or frees the i-th oldest live
// allocation. Invariants: no overlap, conservation, full coalescing at the
// end.
func FuzzArena(f *testing.F) {
	f.Add([]byte{10, 20, 0x80, 30})
	f.Add([]byte{1, 1, 1, 0x81, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, tape []byte) {
		s := NewSpace(1, 1<<16, 4096, Interleaved)
		a := NewArena(s, 1<<15)
		type alloc struct {
			addr Addr
			size int64
		}
		var live []alloc
		for _, op := range tape {
			if op&0x80 == 0 {
				size := int64(op) + 1
				addr, err := a.Alloc(size, 8)
				if err != nil {
					continue
				}
				for _, l := range live {
					if addr < l.addr+Addr(l.size) && l.addr < addr+Addr(size) {
						t.Fatalf("overlap: [%d,%d) vs [%d,%d)", addr, addr+Addr(size), l.addr, l.addr+Addr(l.size))
					}
				}
				live = append(live, alloc{addr, size})
			} else if len(live) > 0 {
				i := int(op&0x7f) % len(live)
				if err := a.Free(live[i].addr); err != nil {
					t.Fatalf("free failed: %v", err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			var liveBytes int64
			for _, l := range live {
				liveBytes += l.size
			}
			if a.FreeBytes()+liveBytes != a.Size() {
				t.Fatalf("conservation broken: free %d + live %d != %d", a.FreeBytes(), liveBytes, a.Size())
			}
		}
		for _, l := range live {
			if err := a.Free(l.addr); err != nil {
				t.Fatal(err)
			}
		}
		if a.Fragments() != 1 {
			t.Fatalf("not coalesced after freeing all: %d fragments", a.Fragments())
		}
	})
}
