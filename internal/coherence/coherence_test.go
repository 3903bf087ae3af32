package coherence

import (
	"math/rand"
	"slices"
	"testing"

	"argo/internal/cache"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/mem"
	"argo/internal/racetag"
	"argo/internal/sim"
)

// rig is a two-node protocol test rig driven without the full cluster.
type rig struct {
	fab   *fabric.Fabric
	space *mem.Space
	dir   *directory.Directory
	nodes []*Node
	procs []*sim.Proc
}

func newRig(t *testing.T, opt Options) *rig {
	t.Helper()
	return newRigGeom(t, opt, 8, 2, 16)
}

// newRigGeom is newRig with the per-node cache geometry chosen by the test.
func newRigGeom(t *testing.T, opt Options, lines, perLine, wbPages int) *rig {
	t.Helper()
	topo := sim.Topology{Nodes: 2, Sockets: 1, CoresPerSocket: 2}
	fab := fabric.MustNew(topo, fabric.DefaultParams())
	space := mem.NewSpace(2, 64*4096, 4096, mem.Interleaved)
	dir := directory.New(fab, space.NPages, space.HomeOf)
	r := &rig{fab: fab, space: space, dir: dir}
	for n := 0; n < 2; n++ {
		c := cache.New(n, 4096, lines, perLine, wbPages)
		r.nodes = append(r.nodes, NewNode(n, fab, space, dir, c, opt))
		r.procs = append(r.procs, &sim.Proc{Node: n})
	}
	return r
}

func (r *rig) write64(node int, addr mem.Addr, v byte) {
	buf := [8]byte{v}
	r.nodes[node].WriteAt(r.procs[node], addr, buf[:])
}

func (r *rig) read64(node int, addr mem.Addr) byte {
	var buf [8]byte
	r.nodes[node].ReadAt(r.procs[node], addr, buf[:])
	return buf[0]
}

func TestReadMissFetchesAndRegisters(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	r.space.HomeBytes(3)[0] = 77
	if got := r.read64(0, 3*4096); got != 77 {
		t.Fatalf("read = %d, want 77", got)
	}
	if !r.dir.Home(3).R.Has(0) {
		t.Fatal("reader not registered")
	}
	if r.fab.NodeStats(0).ReadMisses.Load() != 1 {
		t.Fatal("miss not counted")
	}
	before := r.procs[0].Now()
	if got := r.read64(0, 3*4096+8); got != 0 {
		t.Fatalf("second read = %d", got)
	}
	if r.fab.NodeStats(0).ReadMisses.Load() != 1 {
		t.Fatal("hit counted as miss")
	}
	if r.procs[0].Now()-before > 100 {
		t.Fatalf("hit cost %d too high", r.procs[0].Now()-before)
	}
}

func TestLineFetchPrefetches(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	r.read64(0, 0) // page 0: line = pages 0,1
	s := r.fab.NodeStats(0).Snapshot()
	if s.ColdFetches != 2 || s.PrefetchedPages != 1 {
		t.Fatalf("line fetch: cold=%d prefetched=%d, want 2/1", s.ColdFetches, s.PrefetchedPages)
	}
	// The prefetched neighbour is registered too.
	if !r.dir.Home(1).R.Has(0) {
		t.Fatal("prefetched page not registered")
	}
}

func TestWriteMissCreatesTwinAndRegisters(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	r.write64(0, 5*4096, 9)
	if !r.dir.Home(5).W.Has(0) {
		t.Fatal("writer not registered")
	}
	n := r.nodes[0]
	l := n.Cache.LineOf(5)
	ln := n.Cache.LockLine(l)
	s := n.Cache.SlotOf(ln, 5)
	if s.St != cache.Dirty || s.Twin == nil {
		t.Fatalf("write miss state: %v twin=%v", s.St, s.Twin != nil)
	}
	ln.Unlock()
	// Second write to the same page: no second registration or twin.
	dirOps := r.fab.NodeStats(0).DirOps.Load()
	r.write64(0, 5*4096+16, 10)
	if r.fab.NodeStats(0).DirOps.Load() != dirOps {
		t.Fatal("re-registered on a dirty page")
	}
}

func TestSDFenceDowngrades(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	r.write64(0, 7*4096, 123)
	if r.space.HomeBytes(7)[0] == 123 {
		t.Fatal("write reached home before any downgrade")
	}
	r.nodes[0].SDFence(r.procs[0])
	if r.space.HomeBytes(7)[0] != 123 {
		t.Fatal("SD fence did not downgrade")
	}
	if r.fab.NodeStats(0).Writebacks.Load() == 0 {
		t.Fatal("writeback not counted")
	}
	// Diff transmission: only the changed bytes (plus run header) travel.
	if wb := r.fab.NodeStats(0).WritebackBytes.Load(); wb > 64 {
		t.Fatalf("diff writeback transmitted %d bytes", wb)
	}
}

func TestShouldSelfInvalidateTable(t *testing.T) {
	mk := func(sets ...[]int) directory.Entry {
		var e directory.Entry
		for _, r := range sets[0] {
			e.R.Set(r)
		}
		if len(sets) > 1 {
			for _, w := range sets[1] {
				e.W.Set(w)
			}
		}
		return e
	}
	self := 0
	cases := []struct {
		mode Mode
		e    directory.Entry
		want bool
	}{
		{ModeS, mk([]int{0}), true},
		{ModeS, mk([]int{0, 1}, []int{1}), true},
		{ModePS, mk([]int{0}), false},                 // private
		{ModePS, mk([]int{0, 1}), true},               // shared, writers ignored
		{ModePS3, mk([]int{0}), false},                // private
		{ModePS3, mk([]int{0}, []int{0}), false},      // private + own writes
		{ModePS3, mk([]int{0, 1}), false},             // S,NW
		{ModePS3, mk([]int{0, 1}, []int{0}), false},   // S,SW and we are the writer
		{ModePS3, mk([]int{0, 1}, []int{1}), true},    // S,SW, someone else writes
		{ModePS3, mk([]int{0, 1}, []int{0, 1}), true}, // S,MW
	}
	for i, c := range cases {
		if got := ShouldSelfInvalidate(c.mode, c.e, self); got != c.want {
			t.Errorf("case %d (%v, R=%v W=%v): SI=%v, want %v", i, c.mode, c.e.R, c.e.W, got, c.want)
		}
	}
}

func TestDeferredInvalidation(t *testing.T) {
	// Node 0 reads a page (private). Node 1 reads it (P→S, notifies 0).
	// Node 0 keeps using its copy until its next fence, then drops it only
	// if the page has a foreign writer.
	r := newRig(t, Options{Mode: ModePS3})
	r.read64(0, 9*4096)
	r.read64(1, 9*4096)
	if got := r.dir.Cached(0, 9).Classify(); got != directory.SharedNW {
		t.Fatalf("owner's cached entry = %v, want S,NW after notify", got)
	}
	// S,NW: the fence keeps the page.
	r.nodes[0].SIFence(r.procs[0])
	if r.fab.NodeStats(0).SelfInvalidations.Load() != 0 {
		t.Fatal("S,NW page was invalidated")
	}
	// Node 1 writes: NW→SW, node 0 notified; now node 0's fence drops it.
	r.write64(1, 9*4096, 5)
	r.nodes[0].SIFence(r.procs[0])
	if r.fab.NodeStats(0).SelfInvalidations.Load() == 0 {
		t.Fatal("S,SW(foreign) page survived the fence")
	}
}

func TestProducerConsumerSWKeep(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	// Producer node 0 writes; consumer node 1 reads.
	r.write64(0, 11*4096, 1)
	r.nodes[0].SDFence(r.procs[0])
	r.read64(1, 11*4096)
	// Producer's fence keeps the page (it is the single writer).
	r.nodes[0].SIFence(r.procs[0])
	if r.fab.NodeStats(0).SelfInvalidations.Load() != 0 {
		t.Fatal("single writer invalidated its own page")
	}
	// Consumer's fence drops it.
	r.nodes[1].SIFence(r.procs[1])
	if r.fab.NodeStats(1).SelfInvalidations.Load() == 0 {
		t.Fatal("consumer kept a foreign-written page")
	}
}

func TestNaivePSCheckpointsPrivates(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS})
	r.write64(0, 13*4096, 42)
	r.nodes[0].SDFence(r.procs[0])
	if r.fab.NodeStats(0).Checkpoints.Load() != 1 {
		t.Fatalf("checkpoints = %d, want 1", r.fab.NodeStats(0).Checkpoints.Load())
	}
	if r.space.HomeBytes(13)[0] != 42 {
		t.Fatal("checkpoint did not publish data")
	}
	// The page stays valid (private pages are exempt from SI in P/S).
	r.nodes[0].SIFence(r.procs[0])
	if r.fab.NodeStats(0).SelfInvalidations.Load() != 0 {
		t.Fatal("private page invalidated in P/S mode")
	}
}

func TestSWDiffSuppressionFullPage(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3, SWDiffSuppress: true})
	r.write64(0, 15*4096, 42)
	r.nodes[0].SDFence(r.procs[0])
	// Sole writer: the whole page travels.
	if wb := r.fab.NodeStats(0).WritebackBytes.Load(); wb != 4096 {
		t.Fatalf("suppressed writeback transmitted %d bytes, want 4096", wb)
	}
	// A second writer appears: subsequent writebacks must diff again.
	r.write64(1, 15*4096+8, 9)
	r.nodes[1].SDFence(r.procs[1])
	r.write64(0, 15*4096+16, 7)
	before := r.fab.NodeStats(0).WritebackBytes.Load()
	r.nodes[0].SDFence(r.procs[0])
	if tx := r.fab.NodeStats(0).WritebackBytes.Load() - before; tx >= 4096 {
		t.Fatalf("MW writeback sent full page (%d bytes) and could clobber", tx)
	}
	if r.space.HomeBytes(15)[8] != 9 {
		t.Fatal("second writer's byte was clobbered")
	}
}

func TestConflictEvictionWritesBack(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	// Cache has 8 lines × 2 pages: pages 0 and 32 conflict (32/2 % 8 == 0).
	r.write64(0, 0, 50)
	r.read64(0, 32*4096)
	if r.space.HomeBytes(0)[0] != 50 {
		t.Fatal("conflict eviction lost dirty data")
	}
}

func TestWriteBufferOverflowDowngrades(t *testing.T) {
	topo := sim.Topology{Nodes: 1, Sockets: 1, CoresPerSocket: 1}
	fab := fabric.MustNew(topo, fabric.DefaultParams())
	space := mem.NewSpace(1, 64*4096, 4096, mem.Interleaved)
	dir := directory.New(fab, space.NPages, space.HomeOf)
	opt := Options{Mode: ModePS3}
	c := cache.New(0, 4096, 32, 1, 2) // write buffer of 2 pages
	n := NewNode(0, fab, space, dir, c, opt)
	p := &sim.Proc{Node: 0}
	for pg := 0; pg < 4; pg++ {
		buf := [8]byte{byte(pg + 1)}
		n.WriteAt(p, mem.Addr(pg*4096), buf[:])
	}
	// Pages 0 and 1 must have been downgraded by overflow.
	if space.HomeBytes(0)[0] != 1 || space.HomeBytes(1)[0] != 2 {
		t.Fatal("overflow eviction did not downgrade the oldest dirty pages")
	}
	if space.HomeBytes(3)[0] == 4 {
		t.Fatal("newest page written back prematurely")
	}
}

func TestReadWriteAcrossPageBoundary(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	span := make([]byte, 100)
	for i := range span {
		span[i] = byte(i + 1)
	}
	addr := mem.Addr(2*4096 - 50) // straddles pages 1 and 2
	r.nodes[0].WriteAt(r.procs[0], addr, span)
	got := make([]byte, 100)
	r.nodes[0].ReadAt(r.procs[0], addr, got)
	for i := range span {
		if got[i] != span[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], span[i])
		}
	}
	if !r.dir.Home(1).W.Has(0) || !r.dir.Home(2).W.Has(0) {
		t.Fatal("both straddled pages must be registered written")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeS.String() != "S" || ModePS.String() != "PS" || ModePS3.String() != "PS3" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode name wrong")
	}
}

// A line's per-home page tally comes out in ascending home order whatever
// order the line's pages name their homes in, one entry per home.
func TestCountHomePageKeepsAscendingHomes(t *testing.T) {
	var buf [8]fabric.HomePages
	homes := buf[:0]
	for _, h := range []int{5, 2, 7, 2, 0, 5, 5} {
		homes = countHomePage(homes, h)
	}
	want := []fabric.HomePages{{Home: 0, Pages: 1}, {Home: 2, Pages: 2}, {Home: 5, Pages: 3}, {Home: 7, Pages: 1}}
	if !slices.Equal(homes, want) {
		t.Fatalf("tally %v, want %v", homes, want)
	}
}

// TestRefillCopiesOnlyChangedPages: node 0's cache is one line of two pages,
// and it reads the pages of two lines that share it, alternately, so every
// read of a line refills both slots. Between rounds node 1 writes one of the
// four pages, or none, and releases it; node 0 acquires before it reads.
// Every read returns the last value written, and a line fetch copies exactly
// the pages written since node 0 last copied them: a slot's spare keeps the
// page it evicted. Under the race detector there is no spare, and every
// refill copies. After a local write that a crash wipe loses, the refill
// copies again and reads the home value.
func TestRefillCopiesOnlyChangedPages(t *testing.T) {
	r := newRigGeom(t, Options{Mode: ModePS3}, 1, 2, 16)
	copies := countRefillCopies(t)
	rng := rand.New(rand.NewSource(5))
	var vals, writes [4]int        // per page: word 0's value, the writes node 1 released
	seen := [4]int{-1, -1, -1, -1} // per page: writes when node 0 last copied it
	fetch := func(line int) {
		t.Helper()
		before := copies.Load()
		want := int64(0)
		for pg := 2 * line; pg < 2*line+2; pg++ {
			if got := int(r.read64(0, mem.Addr(pg*4096))); got != vals[pg] {
				t.Fatalf("page %d reads %d, want %d", pg, got, vals[pg])
			}
			if racetag.Enabled || seen[pg] != writes[pg] {
				want++
			}
			seen[pg] = writes[pg]
		}
		if got := copies.Load() - before; got != want {
			t.Fatalf("the fetch of line %d copied %d pages, want %d (writes %v, seen %v)", line, got, want, writes, seen)
		}
	}
	line := 0
	for round := 0; round < 40; round++ {
		if pg := rng.Intn(5); pg < 4 {
			vals[pg] = 1 + round
			r.write64(1, mem.Addr(pg*4096), byte(vals[pg]))
			r.nodes[1].SDFence(r.procs[1])
			writes[pg]++
		}
		r.nodes[0].SIFence(r.procs[0])
		for k := 1 + rng.Intn(3); k > 0; k-- {
			line ^= 1
			fetch(line)
		}
	}
	// Node 0 writes a page of the resident line and crashes before it
	// releases: the next fetch of that line copies both pages, whose homes did
	// not move, and reads the home values.
	r.write64(0, mem.Addr(2*line*4096), 0xEE)
	r.nodes[0].CrashWipe()
	before := copies.Load()
	for pg := 2 * line; pg < 2*line+2; pg++ {
		if got := int(r.read64(0, mem.Addr(pg*4096))); got != vals[pg] {
			t.Fatalf("after the wipe page %d reads %d, want %d", pg, got, vals[pg])
		}
	}
	if got := copies.Load() - before; got != 2 {
		t.Fatalf("the first fetch after a crash wipe copied %d pages, want 2", got)
	}
}
