package coherence

import (
	"bytes"
	"encoding/binary"
	"testing"

	"argo/internal/cache"
	"argo/internal/directory"
	"argo/internal/fabric"
	"argo/internal/fault"
	"argo/internal/mem"
	"argo/internal/sim"
	"argo/internal/stats"
)

// bigRig builds a 4-node rig with enough cache lines that the sweep actually
// shards (fenceShardMin lines per shard).
func bigRig(t *testing.T, opt Options, plan *fault.Plan) *rig {
	t.Helper()
	const nodes = 4
	topo := sim.Topology{Nodes: nodes, Sockets: 1, CoresPerSocket: 2}
	fab := fabric.MustNew(topo, fabric.DefaultParams())
	if plan != nil {
		fab.FI = fault.NewInjector(*plan)
	}
	space := mem.NewSpace(nodes, 2048*4096, 4096, mem.Interleaved)
	dir := directory.New(fab, space.NPages, space.HomeOf)
	r := &rig{fab: fab, space: space, dir: dir}
	for n := 0; n < nodes; n++ {
		c := cache.New(n, 4096, 1024, 1, 4096)
		r.nodes = append(r.nodes, NewNode(n, fab, space, dir, c, opt))
		r.procs = append(r.procs, &sim.Proc{Node: n})
	}
	return r
}

// dirtyMany writes one distinct byte into each of pages[], all from node 0.
func dirtyMany(r *rig, pages []int) {
	for _, pg := range pages {
		r.write64(0, mem.Addr(pg*4096), byte(pg%251)+1)
	}
}

func manyPages(n int) []int {
	pages := make([]int, n)
	for i := range pages {
		pages[i] = i * 2 // spread over lines and all four homes
	}
	return pages
}

func TestSDFenceBurstMultiHome(t *testing.T) {
	r := bigRig(t, Options{Mode: ModePS3}, nil)
	pages := manyPages(200)
	dirtyMany(r, pages)
	r.nodes[0].SDFence(r.procs[0])
	for _, pg := range pages {
		if got, want := r.space.HomeBytes(pg)[0], byte(pg%251)+1; got != want {
			t.Fatalf("page %d home byte = %d, want %d", pg, got, want)
		}
	}
	if got := r.fab.NodeStats(0).Writebacks.Load(); got != 200 {
		t.Fatalf("writebacks = %d, want 200", got)
	}
	// A second fence has nothing to do and must not re-post.
	before := r.procs[0].Now()
	r.nodes[0].SDFence(r.procs[0])
	if r.fab.NodeStats(0).Writebacks.Load() != 200 {
		t.Fatal("idle SD fence re-posted pages")
	}
	if r.procs[0].Now()-before > 10_000 {
		t.Fatalf("idle SD fence cost %d", r.procs[0].Now()-before)
	}
}

// setFenceShards makes sweeps of the rest of test t cut into at most k shards.
func setFenceShards(t *testing.T, k int) {
	old := fenceShards
	fenceShards = k
	t.Cleanup(func() { fenceShards = old })
}

// A sweep cut into four shards (300 used lines) must leave exactly what a
// one-shard sweep leaves — every counter, every home byte — over several
// SD/SI fence pairs, so that scratch records come back out of the pool
// carrying an earlier fence's contents. Its virtual cost is by design not the
// one-shard cost (shard clocks max-combine instead of adding up): it must not
// exceed it, and must repeat bit for bit.
func TestShardedSweepMatchesOneShard(t *testing.T) {
	pages := manyPages(300)
	type outcome struct {
		fences []sim.Time // SD, SI, SD, SI, …
		stats  stats.Snapshot
		home   [][]byte
	}
	run := func(shards int) outcome {
		setFenceShards(t, shards)
		r := bigRig(t, Options{Mode: ModePS3}, nil)
		// Node 1 writes every third page first: for node 0 those are
		// multi-writer pages its SI fence must downgrade and drop, the rest
		// stay private and are kept.
		for i, pg := range pages {
			if i%3 == 0 {
				r.write64(1, mem.Addr(pg*4096+8), 9)
			}
		}
		r.nodes[1].SDFence(r.procs[1])
		n, p := r.nodes[0], r.procs[0]
		var o outcome
		timed := func(fence func(*sim.Proc)) {
			t0 := p.Now()
			fence(p)
			o.fences = append(o.fences, p.Now()-t0)
		}
		for cycle := 0; cycle < 3; cycle++ {
			for _, pg := range pages {
				r.write64(0, mem.Addr(pg*4096), byte(pg%199)+byte(2*cycle)+1)
			}
			timed(n.SDFence)
			for _, pg := range pages {
				r.write64(0, mem.Addr(pg*4096), byte(pg%199)+byte(2*cycle)+2)
			}
			timed(n.SIFence)
		}
		n.SDFence(p) // the kept private pages are still dirty
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		o.stats = r.fab.NodeStats(0).Snapshot()
		for _, pg := range pages {
			o.home = append(o.home, append([]byte(nil), r.space.HomeBytes(pg)...))
		}
		return o
	}
	one, sharded, again := run(1), run(4), run(4)
	if one.stats != sharded.stats {
		t.Fatalf("counters differ between shard counts:\none     %+v\nsharded %+v", one.stats, sharded.stats)
	}
	if one.stats.SelfInvalidations != 3*100 || one.stats.SIFiltered != 3*200 {
		t.Fatalf("test vacuous: %d invalidated, %d kept, want 300 and 600", one.stats.SelfInvalidations, one.stats.SIFiltered)
	}
	for i := range pages {
		if !bytes.Equal(one.home[i], sharded.home[i]) {
			t.Fatalf("page %d home image differs between shard counts", pages[i])
		}
		if want := byte(pages[i]%199) + 6; sharded.home[i][0] != want || (i%3 == 0) != (sharded.home[i][8] == 9) {
			t.Fatalf("page %d home = %d/%d, want %d and node 1's byte kept", pages[i], sharded.home[i][0], sharded.home[i][8], want)
		}
	}
	for i := range sharded.fences {
		if sharded.fences[i] > one.fences[i] {
			t.Fatalf("fence %d: sharded sweep cost %d, one shard %d", i, sharded.fences[i], one.fences[i])
		}
		if sharded.fences[i] == one.fences[i] {
			t.Fatalf("fence %d: sharded sweep cost %d, the same as one shard: not the path under test", i, sharded.fences[i])
		}
		if sharded.fences[i] != again.fences[i] {
			t.Fatalf("fence %d: sharded cost not deterministic: %d vs %d", i, sharded.fences[i], again.fences[i])
		}
	}
	if sharded.stats != again.stats {
		t.Fatal("sharded counters not deterministic")
	}
}

// TestAllocFreeFencePair: the steady-state release/acquire cycle of a lock
// hand-off — store, SD fence (diff, burst), SI fence (classify, downgrade
// what the SD fence's successor dirtied, invalidate) — allocates nothing on
// a one-shard sweep: every slice comes from the pooled fence scratch. Page 3
// is multi-writer (dropped by every SI fence, re-missed by the next store),
// page 5 and the two prefetched line neighbours 2 and 4 are private (kept;
// 5 is downgraded by every SD fence).
func TestAllocFreeFencePair(t *testing.T) {
	skipAllocTestUnderRace(t)
	r := newRigGeom(t, Options{Mode: ModePS3}, 8, 2, 16)
	r.write64(1, 3*4096+8, 9)
	r.nodes[1].SDFence(r.procs[1])
	n, p := r.nodes[0], r.procs[0]
	tb := n.NewTLB()
	v := uint64(0)
	cycle := func() {
		v++
		writeWord(n, p, tb, 3*4096, v)
		writeWord(n, p, tb, 5*4096, v)
		n.SDFence(p)
		writeWord(n, p, tb, 3*4096+16, v)
		n.SIFence(p)
	}
	cycle()
	before := r.fab.NodeStats(0).Snapshot()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("write + SD fence + SI fence allocated %.1f times per cycle, want 0", a)
	}
	d := r.fab.NodeStats(0).Snapshot().Sub(before)
	if d.Writebacks != 3*101 || d.SelfInvalidations != 101 || d.SIFiltered != 3*101 || d.ReadMisses != 101 {
		t.Fatalf("101 cycles made %d writebacks, %d invalidations, %d kept, %d read misses: not the path under test", d.Writebacks, d.SelfInvalidations, d.SIFiltered, d.ReadMisses)
	}
	home := r.space.HomeBytes(3)
	if a, b := binary.LittleEndian.Uint64(home), binary.LittleEndian.Uint64(home[16:]); a != v || b != v || home[8] != 9 {
		t.Fatalf("home of page 3 = %d, %d, byte 8 = %d; want %d, %d, 9", a, b, home[8], v, v)
	}
	if got := binary.LittleEndian.Uint64(r.space.HomeBytes(5)); got != v {
		t.Fatalf("home of page 5 = %d, want %d", got, v)
	}
}

// TestAllocFenceParallelSweep: the same steady state on a sweep of
// 4·fenceShardMin used lines, which is cut into fenceShards shards, allocates
// nothing either: the shard clocks and the merged downgrade list live in the
// fencing scratch record.
func TestAllocFenceParallelSweep(t *testing.T) {
	skipAllocTestUnderRace(t)
	r := bigRig(t, Options{Mode: ModePS3}, nil)
	pages := manyPages(fenceShards * fenceShardMin)
	n, p := r.nodes[0], r.procs[0]
	if nl := len(n.Cache.AppendUsedLines(nil)); nl != 0 {
		t.Fatalf("%d lines used before the first write", nl)
	}
	v := byte(0)
	cycle := func() {
		v++
		for _, pg := range pages {
			r.write64(0, mem.Addr(pg*4096), v)
		}
		n.SDFence(p) // downgrades every page
		n.SIFence(p) // keeps every page: node 0 is their only writer
	}
	cycle()
	if ns := sweepShards(len(n.Cache.AppendUsedLines(nil))); ns != fenceShards {
		t.Fatalf("the sweep runs %d shards, want %d: not the path under test", ns, fenceShards)
	}
	before := r.fab.NodeStats(0).Snapshot()
	if a := testing.AllocsPerRun(50, cycle); a != 0 {
		t.Fatalf("write + SD fence + SI fence allocated %.1f times per cycle, want 0", a)
	}
	d := r.fab.NodeStats(0).Snapshot().Sub(before)
	if n := int64(51 * len(pages)); d.Writebacks != n || d.SIFiltered != n || d.SelfInvalidations != 0 {
		t.Fatalf("51 cycles made %d writebacks, %d kept, %d invalidations: not the path under test", d.Writebacks, d.SIFiltered, d.SelfInvalidations)
	}
	for _, pg := range pages {
		if got := r.space.HomeBytes(pg)[0]; got != v {
			t.Fatalf("home of page %d = %d, want %d", pg, got, v)
		}
	}
}

func TestSDFenceRetriesUnderDrop(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Drop: 0.4}
	r := bigRig(t, Options{Mode: ModePS3}, plan)
	pages := manyPages(120)
	dirtyMany(r, pages)
	r.nodes[0].SDFence(r.procs[0])
	for _, pg := range pages {
		if got, want := r.space.HomeBytes(pg)[0], byte(pg%251)+1; got != want {
			t.Fatalf("page %d home byte = %d, want %d (lost under drops)", pg, got, want)
		}
	}
	if r.fab.NodeStats(0).WritebackRetries.Load() == 0 {
		t.Fatal("test vacuous: no writeback retried under drop=0.4")
	}
	// Retries are virtual-only: the functional writeback happened once.
	if got := r.fab.NodeStats(0).Writebacks.Load(); got != 120 {
		t.Fatalf("writebacks = %d, want 120", got)
	}
	if err := r.nodes[0].CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSIFenceBurstDowngradesDoomedDirty(t *testing.T) {
	// Node 1 reads, node 0 writes the same pages (shared, MW once node 1
	// writes too): node 0's SI fence must downgrade-then-invalidate.
	r := bigRig(t, Options{Mode: ModeS}, nil)
	pages := manyPages(80)
	dirtyMany(r, pages)
	r.nodes[0].SIFence(r.procs[0])
	for _, pg := range pages {
		if got, want := r.space.HomeBytes(pg)[0], byte(pg%251)+1; got != want {
			t.Fatalf("page %d home byte = %d, want %d", pg, got, want)
		}
	}
	if r.fab.NodeStats(0).SelfInvalidations.Load() < int64(len(pages)) {
		t.Fatal("SI fence kept pages in mode S")
	}
	if err := r.nodes[0].CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepShardsBounds(t *testing.T) {
	for _, tc := range []struct{ nl, want int }{
		{0, 1}, {1, 1}, {31, 1}, {32, 1}, {63, 1}, {64, 2}, {1000, 4},
	} {
		if got := sweepShards(tc.nl); got != tc.want {
			t.Fatalf("sweepShards(%d) = %d, want %d", tc.nl, got, tc.want)
		}
	}
	setFenceShards(t, 1)
	if got := sweepShards(1000); got != 1 {
		t.Fatalf("one shard at most: sweepShards(1000) = %d", got)
	}
}

// After a crash wipe or a phase reset the used list is as empty as the cache:
// the next fences sweep nothing and lock no line. The test holds the lock of
// every line the node had filled, so a fence that still snapshotted one of
// them would never return.
func TestFenceAfterWipeLocksNoLine(t *testing.T) {
	for name, wipe := range map[string]func(n *Node){
		"CrashWipe":     (*Node).CrashWipe,
		"ResetForPhase": (*Node).ResetForPhase,
	} {
		t.Run(name, func(t *testing.T) {
			r := newRigGeom(t, Options{Mode: ModeS}, 32, 2, 16)
			n := r.nodes[0]
			for pg := 0; pg < 40; pg += 3 {
				r.write64(0, mem.Addr(pg)*4096, 1)
			}
			filled := n.Cache.AppendUsedLines(nil)
			if len(filled) < 10 {
				t.Fatalf("only %d lines filled", len(filled))
			}
			wipe(n)
			if left := n.Cache.AppendUsedLines(nil); len(left) != 0 {
				t.Fatalf("used lines after the wipe: %v", left)
			}
			for _, l := range filled {
				defer n.Cache.LockLine(l).Unlock()
			}
			n.SIFence(r.procs[0])
			n.SDFence(r.procs[0])
			if inv := r.fab.NodeStats(0).SelfInvalidations.Load(); inv != 0 {
				t.Fatalf("fence after the wipe invalidated %d pages", inv)
			}
		})
	}
}
