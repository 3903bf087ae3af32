package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestHomeInterleaved(t *testing.T) {
	s := NewSpace(4, 16*4096, 4096, Interleaved)
	if s.NPages != 16 {
		t.Fatalf("NPages = %d, want 16", s.NPages)
	}
	for p := 0; p < 16; p++ {
		if got := s.HomeOf(p); got != p%4 {
			t.Fatalf("page %d home = %d, want %d", p, got, p%4)
		}
	}
}

func TestHomeBlocked(t *testing.T) {
	s := NewSpace(4, 16*4096, 4096, Blocked)
	for p := 0; p < 16; p++ {
		if got, want := s.HomeOf(p), p/4; got != want {
			t.Fatalf("page %d home = %d, want %d", p, got, want)
		}
	}
	// Non-divisible page counts must still map every page to a valid node.
	s = NewSpace(3, 10*4096, 4096, Blocked)
	for p := 0; p < s.NPages; p++ {
		if h := s.HomeOf(p); h < 0 || h >= 3 {
			t.Fatalf("page %d home = %d out of range", p, h)
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	s := NewSpace(2, 1<<20, 4096, Interleaved)
	a := s.Alloc(10, 0)
	if a%8 != 0 {
		t.Fatalf("default alignment broken: %d", a)
	}
	b := s.Alloc(100, 64)
	if b%64 != 0 {
		t.Fatalf("alloc not 64-aligned: %d", b)
	}
	c := s.AllocPageAligned(5000)
	if c%4096 != 0 {
		t.Fatalf("alloc not page-aligned: %d", c)
	}
	if b < a+10 || c < b+100 {
		t.Fatalf("allocations overlap: %d %d %d", a, b, c)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	s := NewSpace(1, 4096, 4096, Interleaved)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	s.Alloc(8192, 8)
}

// Property: concurrent allocations never overlap and never exceed capacity.
func TestAllocConcurrentNonOverlap(t *testing.T) {
	s := NewSpace(2, 1<<20, 4096, Interleaved)
	const workers, each = 8, 50
	var mu sync.Mutex
	type span struct{ lo, hi Addr }
	var spans []span
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				n := int64(rng.Intn(200) + 1)
				a := s.Alloc(n, 8)
				mu.Lock()
				spans = append(spans, span{a, a + n})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("allocations overlap: [%d,%d) and [%d,%d)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestReadWritePage(t *testing.T) {
	s := NewSpace(2, 8*4096, 4096, Interleaved)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	s.WritePageFull(3, src)
	dst := make([]byte, 4096)
	s.ReadPage(3, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("page round trip corrupted data")
	}
}

// A page nobody has written reads as zeros — whole or in part — and reading
// it does not allocate it.
func TestHomeNeverWrittenReadsZeros(t *testing.T) {
	s := NewSpace(2, 8*4096, 4096, Interleaved)
	dst := bytes.Repeat([]byte{0xFF}, 4096)
	s.ReadPage(5, dst)
	if !bytes.Equal(dst, make([]byte, 4096)) {
		t.Fatal("never-written page did not read as zeros")
	}
	part := bytes.Repeat([]byte{0xFF}, 100)
	readPageAt(s, 5, 4000, part[:96])
	if !bytes.Equal(part[:96], make([]byte, 96)) || part[96] != 0xFF {
		t.Fatalf("partial read of a never-written page: %v", part)
	}
	if allocated(s, 5) || s.Chunks() != 0 {
		t.Fatal("reading a page materialised it or its table entry")
	}
}

// ViewPageAt shows a written page in place — the view is the frame itself —
// and a never-written one as zeros in views of at most 4 KiB, without giving
// it a frame or a table entry.
func TestViewPageAtInPlace(t *testing.T) {
	s := NewSpace(2, 8*16384, 16384, Interleaved)
	home := s.HomeBytes(2)
	s.ViewPageAt(2, 64, 100, func(b []byte) {
		if len(b) != 100 || &b[0] != &home[64] {
			t.Fatal("the view of a written page is not its frame")
		}
	})
	var views, n int
	s.ViewPageAt(5, 8, 16000, func(b []byte) {
		if len(b) > 4096 || !bytes.Equal(b, make([]byte, len(b))) {
			t.Fatalf("never-written page seen as %d bytes, not all zero", len(b))
		}
		views, n = views+1, n+len(b)
	})
	if n != 16000 || views != 4 {
		t.Fatalf("never-written page viewed as %d bytes in %d views, want 16000 in 4", n, views)
	}
	if allocated(s, 5) || s.Chunks() != 1 {
		t.Fatal("viewing a never-written page gave it a frame or a table entry")
	}
}

// readPageAt copies len(dst) bytes of page p from byte off through
// ViewPageAt, checking that the views arrive in order and cover them exactly.
func readPageAt(s *Space, p, off int, dst []byte) {
	k := 0
	s.ViewPageAt(p, off, len(dst), func(b []byte) { k += copy(dst[k:], b) })
	if k != len(dst) {
		panic(fmt.Sprintf("ViewPageAt(%d, %d, %d) viewed %d bytes", p, off, len(dst), k))
	}
}

// allocated reports whether page p has backing storage.
func allocated(s *Space, p int) bool {
	pg := s.pages.Peek(p)
	return pg != nil && pg.data != nil
}

// Each of the four writers allocates exactly the page it touches, zeroed
// under whatever it does not write.
func TestHomeFirstWriteMaterialises(t *testing.T) {
	data := make([]byte, 4096)
	twin := make([]byte, 4096)
	data[9] = 3
	writers := map[string]func(s *Space, p int){
		"WritePageFull": func(s *Space, p int) { s.WritePageFull(p, data) },
		"ApplyDiff":     func(s *Space, p int) { s.ApplyDiff(p, data, twin) },
		"Writeback":     func(s *Space, p int) { s.Writeback(p, data, twin, nil) },
		"HomeBytes":     func(s *Space, p int) { s.HomeBytes(p)[9] = 3 },
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			s := NewSpace(2, 8*4096, 4096, Interleaved)
			write(s, 3)
			for p := 0; p < s.NPages; p++ {
				if allocated(s, p) != (p == 3) {
					t.Fatalf("page %d allocated = %v after a write to page 3", p, allocated(s, p))
				}
			}
			got := make([]byte, 4096)
			s.ReadPage(3, got)
			if !bytes.Equal(got, data) {
				t.Fatal("first write lost or page not zero-filled around it")
			}
			if h := s.HomeBytes(3); len(h) != 4096 || &h[0] != &s.HomeBytes(3)[0] {
				t.Fatal("HomeBytes is not the page's one backing slice")
			}
			readPageAt(s, 3, 8, got[:4])
			if got[1] != 3 {
				t.Fatalf("ViewPageAt(3, 8) = %v, want byte 1 = 3", got[:4])
			}
		})
	}
}

// Concurrent first ApplyDiffs and ReadPages of one never-written page: the
// allocation happens once, under the page's write lock; every diff lands, and
// a reader sees each byte either still zero or already final. Run under
// -race.
func TestHomeConcurrentFirstTouch(t *testing.T) {
	const writers, readers = 8, 4
	for round := 0; round < 50; round++ {
		s := NewSpace(1, 4096, 4096, Interleaved)
		twin := make([]byte, 4096)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				data := make([]byte, 4096)
				for i := w; i < 4096; i += writers { // interleaved bytes: every word is shared
					data[i] = byte(w + 1)
				}
				s.ApplyDiff(0, data, twin)
			}()
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]byte, 4096)
				for k := 0; k < 4; k++ {
					s.ReadPage(0, dst)
					for i, b := range dst {
						if b != 0 && b != byte(i%writers+1) {
							t.Errorf("byte %d read as %d", i, b)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for i, b := range s.HomeBytes(0) {
			if b != byte(i%writers+1) {
				t.Fatalf("round %d: byte %d = %d after all diffs, want %d", round, i, b, i%writers+1)
			}
		}
	}
}

func TestApplyDiffOnlyChangedBytes(t *testing.T) {
	s := NewSpace(1, 4096, 4096, Interleaved)
	home := s.HomeBytes(0)
	for i := range home {
		home[i] = 0xAA
	}
	twin := make([]byte, 4096)
	data := make([]byte, 4096)
	for i := range twin {
		twin[i] = 0x11
		data[i] = 0x11
	}
	// Node writes bytes 100..109 and 200.
	for i := 100; i < 110; i++ {
		data[i] = 0x22
	}
	data[200] = 0x33
	tx := s.ApplyDiff(0, data, twin)
	wantTx := (10 + 8) + (1 + 8)
	if tx != wantTx {
		t.Fatalf("diff tx = %d, want %d", tx, wantTx)
	}
	for i := range home {
		switch {
		case i >= 100 && i < 110:
			if home[i] != 0x22 {
				t.Fatalf("byte %d = %#x, want 0x22", i, home[i])
			}
		case i == 200:
			if home[i] != 0x33 {
				t.Fatalf("byte 200 = %#x, want 0x33", home[i])
			}
		default:
			if home[i] != 0xAA {
				t.Fatalf("untouched byte %d clobbered to %#x", i, home[i])
			}
		}
	}
}

func TestWritebackPreferFull(t *testing.T) {
	s := NewSpace(1, 4096, 4096, Interleaved)
	data := bytes.Repeat([]byte{7}, 4096)
	twin := bytes.Repeat([]byte{7}, 4096)
	data[5] = 9
	tx, full := s.Writeback(0, data, twin, func() bool { return true })
	if !full || tx != 4096 {
		t.Fatalf("preferFull writeback: full=%v tx=%d", full, tx)
	}
	if s.HomeBytes(0)[5] != 9 || s.HomeBytes(0)[6] != 7 {
		t.Fatal("full writeback did not copy page")
	}
	tx, full = s.Writeback(0, data, twin, nil)
	if full {
		t.Fatal("nil preferFull must diff")
	}
	if tx != 1+8 {
		t.Fatalf("diff tx = %d, want 9", tx)
	}
}

// Property: two writers with disjoint dirty bytes merge cleanly through
// diffs, in either order (false sharing on one page).
func TestDiffMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(2, 4096, 64, Interleaved)
		base := make([]byte, 64)
		rng.Read(base)
		s.WritePageFull(0, base)

		dataA := append([]byte(nil), base...)
		dataB := append([]byte(nil), base...)
		want := append([]byte(nil), base...)
		// Disjoint index sets: A writes evens, B writes odds (random subset).
		for i := 0; i < 64; i += 2 {
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(255) + 1) // ensure change
				if v == base[i] {
					v++
				}
				dataA[i], want[i] = v, v
			}
		}
		for i := 1; i < 64; i += 2 {
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(255) + 1)
				if v == base[i] {
					v++
				}
				dataB[i], want[i] = v, v
			}
		}
		if seed%2 == 0 {
			s.ApplyDiff(0, dataA, base)
			s.ApplyDiff(0, dataB, base)
		} else {
			s.ApplyDiff(0, dataB, base)
			s.ApplyDiff(0, dataA, base)
		}
		return bytes.Equal(s.HomeBytes(0), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffSizeMatchesApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(1, 4096, 256, Interleaved)
		twin := make([]byte, 256)
		rng.Read(twin)
		data := append([]byte(nil), twin...)
		for k := 0; k < rng.Intn(40); k++ {
			data[rng.Intn(256)] ^= byte(rng.Intn(255) + 1)
		}
		return diffScan(nil, data, twin) == s.ApplyDiff(0, data, twin)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// diffScans are the two scans the tests hold to refDiffRuns: diffScan, which
// hands every length that is a multiple of 32 to the SIMD kernel wherever it
// is selected (TestKernelsSelected in internal/simd checks that it is on an
// AVX2 host), and the Go loop that is its fallback.
var diffScans = []struct {
	name string
	scan func(home, data, twin []byte) int
}{{"simd", diffScan}, {"go", diffScanGo}}

// refDiffRuns is the scalar byte-at-a-time reference for the word-wise
// run-scan: it returns the diff's wire size and applies changed runs to home
// (when home is non-nil) exactly as the pre-vectorization loop did.
func refDiffRuns(home, data, twin []byte) int {
	tx := 0
	i := 0
	n := len(data)
	for i < n {
		if data[i] == twin[i] {
			i++
			continue
		}
		j := i
		for j < n && data[j] != twin[j] {
			j++
		}
		if home != nil {
			copy(home[i:j], data[i:j])
		}
		tx += (j - i) + 8
		i = j
	}
	return tx
}

// Directed cases both scans must get exactly right: empty diffs, full-page
// diffs, runs that start and end on every byte offset of a word, runs that
// straddle word, 32-byte block and chunk edges, a run that ends flush with a
// chunk followed by a skipped chunk and a run that opens the next one (the
// carry must not leak across the skip and merge their headers), runs that
// carry into and out of a 32-byte block, all-changed blocks, and lengths that
// are a multiple of neither the word nor the chunk. Every case is sized alone
// (nil home) and applied. Home starts as a third pattern: whatever the diff
// does not name must survive (false sharing).
func TestDiffScanDirected(t *testing.T) {
	type run struct{ lo, hi int }
	type tcase struct {
		name string
		n    int
		runs []run
	}
	const c = diffChunk
	cases := []tcase{
		{"empty", 4096, nil},
		{"full-page", 4096, []run{{0, 4096}}},
		{"single-byte-at-0", 64, []run{{0, 1}}},
		{"single-byte-at-end", 64, []run{{63, 64}}},
		{"adjacent-runs-one-gap", 64, []run{{4, 7}, {8, 12}}},
		{"adjacent-words-one-gap-each", 64, []run{{8, 15}, {16, 23}, {24, 31}}},
		{"whole-word-run", 64, []run{{16, 24}}},
		{"tail-shorter-than-word", 13, []run{{9, 13}}},
		{"tiny-page", 5, []run{{1, 4}}},
		{"one-byte-page-diff", 1, []run{{0, 1}}},
		{"one-byte-page-equal", 1, nil},
		{"zero-length", 0, nil},
		{"run-fills-chunk", 4 * c, []run{{c, 2 * c}}},
		{"run-ends-at-chunk-edge", 4 * c, []run{{c + 5, 2 * c}}},
		{"run-starts-at-chunk-edge", 4 * c, []run{{2 * c, 2*c + 3}}},
		{"run-straddles-chunk-edge", 4 * c, []run{{2*c - 3, 2*c + 3}}},
		{"run-spans-whole-chunk-and-more", 4 * c, []run{{c - 9, 3*c + 9}}},
		{"carry-across-skipped-chunk", 4 * c, []run{{c - 8, c}, {2 * c, 2*c + 8}}},
		{"carry-across-equal-word", 64, []run{{0, 8}, {16, 24}}},
		{"byte-runs-either-side-of-chunk-edge", 4 * c, []run{{c - 1, c}, {c + 1, c + 2}}},
		{"chunk-plus-words-plus-bytes", c + 21, []run{{c - 2, c + 2}, {c + 14, c + 21}}},
		{"tail-run-joins-chunk-run", c + 21, []run{{c - 16, c + 21}}},
		{"tail-only-words-and-bytes", c - 3, []run{{0, 1}, {7, 9}, {c - 4, c - 3}}},
		{"streak-then-mixed-word", 4 * c, []run{{8, 43}}},
		{"streak-to-chunk-end-then-streak", 4 * c, []run{{c - 24, c + 24}}},
		{"run-straddles-block-edge", 96, []run{{28, 36}}},
		{"run-carries-in-and-out-of-block", 128, []run{{20, 76}}},
		{"run-carries-out-then-equal-block", 128, []run{{24, 32}, {64, 70}}},
		{"run-carries-out-one-gap", 96, []run{{24, 32}, {33, 40}}},
		{"runs-either-side-of-block-edge", 96, []run{{31, 32}, {32, 33}}},
		{"all-changed-block", 96, []run{{32, 64}}},
		{"all-changed-first-and-last-block", 128, []run{{0, 32}, {96, 128}}},
		{"all-changed-blocks-then-byte", 128, []run{{0, 64}, {65, 66}}},
		{"one-block-page", 32, []run{{3, 29}}},
		{"one-block-page-full", 32, []run{{0, 32}}},
	}
	// Every (start, end) pair over two words, at a chunk edge, at a block
	// edge and inside both; and every run that reaches a block edge from
	// either side.
	for _, base := range []int{c - 8, 40, 56} {
		for lo := 0; lo < 8; lo++ {
			for hi := lo + 1; hi <= 16; hi++ {
				cases = append(cases, tcase{fmt.Sprintf("word-offsets-%d+%d-%d", base, lo, hi), 2 * c, []run{{base + lo, base + hi}}})
			}
		}
	}
	for k := 1; k <= 32; k++ {
		cases = append(cases,
			tcase{fmt.Sprintf("run-ends-at-block-edge-%d", k), 96, []run{{64 - k, 64}}},
			tcase{fmt.Sprintf("run-starts-at-block-edge-%d", k), 96, []run{{32, 32 + k}}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := make([]byte, tc.n)
			for i := range twin {
				twin[i] = byte(i * 7)
			}
			data := append([]byte(nil), twin...)
			for _, r := range tc.runs {
				for i := r.lo; i < r.hi; i++ {
					data[i] ^= 0xFF
				}
			}
			want := refDiffRuns(nil, data, twin)
			homeA := bytes.Repeat([]byte{0xA5}, tc.n)
			refDiffRuns(homeA, data, twin)
			for _, sc := range diffScans {
				if got := sc.scan(nil, data, twin); got != want {
					t.Fatalf("%s: sized diff = %d, want %d", sc.name, got, want)
				}
				homeB := bytes.Repeat([]byte{0xA5}, tc.n)
				if got := sc.scan(homeB, data, twin); got != want {
					t.Fatalf("%s: applied diff tx = %d, want %d", sc.name, got, want)
				}
				if !bytes.Equal(homeA, homeB) {
					t.Fatalf("%s: apply diverged from byte-wise reference", sc.name)
				}
			}
		})
	}
}

// randomDiffPair returns a twin and a data page of a random length — up to a
// few chunks, rarely a multiple of the chunk or the word — that differ in one
// of the shapes real pages take: nothing, everything, scattered runs with
// unchanged bytes sprinkled inside them (mixed words), or every word changed
// in its low bytes only (what a float update leaves behind).
func randomDiffPair(rng *rand.Rand) (data, twin []byte) {
	n := rng.Intn(5*diffChunk + 1) // includes 0 and sub-word lengths
	twin = make([]byte, n)
	rng.Read(twin)
	data = append([]byte(nil), twin...)
	switch rng.Intn(5) {
	case 0: // leave identical
	case 1: // change everything
		for i := range data {
			data[i] ^= 0xFF
		}
	case 2: // low bytes of every word
		for i := range data {
			if i%8 < 1+rng.Intn(7) {
				data[i] ^= byte(rng.Intn(255) + 1)
			}
		}
	default: // sprinkle runs, some longer than a chunk
		for k := 0; k < rng.Intn(10); k++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(17)
			if rng.Intn(4) == 0 {
				hi = lo + rng.Intn(2*diffChunk)
			}
			for i := lo; i < hi && i < n; i++ {
				if rng.Intn(8) > 0 {
					data[i] ^= byte(rng.Intn(255) + 1)
				}
			}
		}
	}
	return data, twin
}

// Property: on random page/twin pairs, and on their longest prefix whose
// length is a multiple of 32 (the SIMD kernel's), both scans' sizing and
// applying agree with the byte-wise reference — same wire size, same bytes
// written, and, home being a third random pattern, the same bytes left
// untouched.
func TestDiffScanMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data, twin := randomDiffPair(rng)
		home := make([]byte, len(data))
		rng.Read(home)
		for _, n := range []int{len(data), len(data) &^ 31} {
			homeRef := append([]byte(nil), home[:n]...)
			want := refDiffRuns(homeRef, data[:n], twin[:n])
			for _, sc := range diffScans {
				homeGot := append([]byte(nil), home[:n]...)
				if sc.scan(nil, data[:n], twin[:n]) != want || sc.scan(homeGot, data[:n], twin[:n]) != want {
					return false
				}
				if !bytes.Equal(homeRef, homeGot) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if Interleaved.String() != "interleaved" || Blocked.String() != "blocked" {
		t.Fatal("policy names wrong")
	}
	if Policy(42).String() != "Policy(42)" {
		t.Fatal("unknown policy name wrong")
	}
}

// Every home writer moves the page's version, so Refill copies again after
// any of them and skips the copy only while the page stands still; ReadPage
// copies whatever its destination held.
func TestEveryHomeWriterMovesTheVersion(t *testing.T) {
	s := NewSpace(2, 8*4096, 4096, Interleaved)
	page := bytes.Repeat([]byte{7}, 4096)
	twin := make([]byte, 4096)
	writers := []struct {
		name  string
		write func()
	}{
		{"WritePageFull", func() { s.WritePageFull(3, page) }},
		{"Writeback full", func() { s.Writeback(3, page, twin, func() bool { return true }) }},
		{"Writeback diff", func() { s.Writeback(3, page, twin, func() bool { return false }) }},
		{"ApplyDiff", func() { s.ApplyDiff(3, page, twin) }},
		{"HomeBytes", func() { s.HomeBytes(3)[9] = 9 }},
	}
	dst := make([]byte, 4096)
	v := s.Refill(3, dst, 0)
	if v == 0 || !bytes.Equal(dst, make([]byte, 4096)) {
		t.Fatalf("first refill of an unwritten page: version %d, zeros %v", v, bytes.Equal(dst, make([]byte, 4096)))
	}
	home := make([]byte, 4096)
	for _, w := range writers {
		w.write()
		dst[0] = 0xEE // what the refill must overwrite
		got := s.Refill(3, dst, v)
		if got <= v {
			t.Fatalf("%s: version %d after %d", w.name, got, v)
		}
		s.ReadPage(3, home)
		if !bytes.Equal(dst, home) {
			t.Fatalf("%s: the refill after the write does not hold the home page", w.name)
		}
		v = got
		dst[1] = 0xEE // a copy Refill keeps is never looked at again
		if s.Refill(3, dst, v) != v || dst[1] != 0xEE {
			t.Fatalf("%s: a refill at the current version copied", w.name)
		}
		dst[1] = home[1]
	}
	junk := bytes.Repeat([]byte{0xEE}, 4096)
	s.ReadPage(3, junk)
	if !bytes.Equal(junk, s.HomeBytes(3)) {
		t.Fatal("ReadPage did not copy the whole page over what its destination held")
	}
}

// BenchmarkRefill reports ns per page of a line fetch's refill: "unchanged"
// when the destination already holds the page's current version (one atomic
// load, no copy), "changed" when it holds none (the read lock and the copy).
func BenchmarkRefill(b *testing.B) {
	s := NewSpace(1, 4096, 4096, Interleaved)
	s.WritePageFull(0, bytes.Repeat([]byte{1}, 4096))
	dst := make([]byte, 4096)
	v := s.Refill(0, dst, 0)
	b.Run("unchanged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Refill(0, dst, v)
		}
	})
	b.Run("changed", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			s.Refill(0, dst, 0)
		}
	})
}
