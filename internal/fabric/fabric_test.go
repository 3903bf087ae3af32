package fabric

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"argo/internal/fault"
	"argo/internal/probe"
	"argo/internal/sim"
	"argo/internal/span"
	"argo/internal/trace"
)

func testTopo() sim.Topology {
	return sim.Topology{Nodes: 4, Sockets: 4, CoresPerSocket: 4}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDesignDefaults holds DESIGN.md §4 to the code: every bold default
// there ("**2 500 ns**") is the value of the fabric.Params field named in
// backticks after it, and the §4 bullets name every field they quote.
func TestDesignDefaults(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(doc)
	start := strings.Index(sec, "\n## 4. Cost model")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4 cost model section")
	}
	sec = sec[start+1:]
	sec = sec[:strings.Index(sec, "\n## ")]
	const value = `\*\*([0-9][0-9 ]*) ns(?:/KB)?\*\*`
	bold := regexp.MustCompile(value).FindAllString(sec, -1)
	pairs := regexp.MustCompile(value+"[^*]*?\\(`(\\w+)`\\)").FindAllStringSubmatch(sec, -1)
	if len(bold) == 0 || len(pairs) != len(bold) {
		t.Fatalf("§4 has %d bold defaults and %d of them name their field: %q", len(bold), len(pairs), bold)
	}
	def := reflect.ValueOf(DefaultParams())
	for _, m := range pairs {
		want, err := strconv.ParseInt(strings.ReplaceAll(m[1], " ", ""), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		f := def.FieldByName(m[2])
		if !f.IsValid() {
			t.Errorf("§4 names %s, which is no field of fabric.Params", m[2])
			continue
		}
		if got := f.Int(); got != want {
			t.Errorf("§4 gives %s as %d, DefaultParams has %d", m[2], want, got)
		}
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	p := DefaultParams()
	p.RemoteLatency = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative latency validated")
	}
}

func TestTransferAndCopyCosts(t *testing.T) {
	p := DefaultParams()
	if got := p.TransferCost(1024); got != p.NsPerKB {
		t.Fatalf("1KB transfer = %d, want %d", got, p.NsPerKB)
	}
	if got := p.TransferCost(4096); got != 4*p.NsPerKB {
		t.Fatalf("4KB transfer = %d, want %d", got, 4*p.NsPerKB)
	}
	if p.CopyCost(4096) >= p.TransferCost(4096) {
		t.Fatal("local copies should be cheaper than the wire")
	}
}

func TestRemoteReadCharges(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	p := &sim.Proc{Node: 0}
	f.RemoteRead(p, 1, 4096, 0)
	want := 2*f.P.RemoteLatency + f.P.TransferCost(4096)
	if p.Now() != want {
		t.Fatalf("remote read cost %d, want %d", p.Now(), want)
	}
	if f.NodeStats(1).BytesSent.Load() != 4096 {
		t.Fatal("home-side bytes not accounted")
	}
	if f.NodeStats(0).BytesReceived.Load() != 4096 {
		t.Fatal("requester-side bytes not accounted")
	}
}

func TestLoopbackIsCheap(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	p := &sim.Proc{Node: 2}
	f.RemoteRead(p, 2, 4096, 0)
	if p.Now() >= 2*f.P.RemoteLatency {
		t.Fatalf("loopback read cost %d — paid network latency", p.Now())
	}
}

func TestRemoteWriteOneWay(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	p := &sim.Proc{Node: 0}
	f.RemoteWrite(p, 1, 1024, 0)
	// A posted write pays one latency plus wire, not a round trip.
	want := f.P.RemoteLatency + f.P.TransferCost(1024)
	if p.Now() != want {
		t.Fatalf("remote write cost %d, want %d", p.Now(), want)
	}
}

func TestRemoteAtomicRoundTrip(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	p := &sim.Proc{Node: 0}
	f.RemoteAtomic(p, 3, 0)
	want := 2*f.P.RemoteLatency + f.P.DirService
	if p.Now() != want {
		t.Fatalf("remote atomic cost %d, want %d", p.Now(), want)
	}
	if f.NodeStats(0).DirOps.Load() != 1 {
		t.Fatal("dir op not counted")
	}
}

func TestNICSerialization(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	a := &sim.Proc{Node: 0}
	b := &sim.Proc{Node: 2}
	f.RemoteRead(a, 1, 64<<10, 0)
	f.RemoteRead(b, 1, 64<<10, 1)
	// Both hit node 1's NIC: the second transfer queues behind the first.
	wire := f.P.TransferCost(64 << 10)
	if b.Now() < a.Now() {
		t.Fatalf("second reader (%d) finished before first (%d) despite shared NIC", b.Now(), a.Now())
	}
	if b.Now() < 2*wire {
		t.Fatalf("second reader %d did not queue behind first (wire %d)", b.Now(), wire)
	}
}

func TestLineFetchSharesLatency(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	// 4 pages (two from home 1, one each from homes 2 and 3) plus their
	// registrations, issued as a posted fetch-and-or burst followed by one
	// pipelined transfer burst.
	p := &sim.Proc{Node: 0}
	f.AtomicBurst(p, []AtomicItem{{Home: 1, Key: 0}, {Home: 1, Key: 1}, {Home: 2, Key: 2}, {Home: 3, Key: 3}})
	f.LineFetch(p, map[int]int{1: 2, 2: 1, 3: 1}, 4096, 0)
	pipelined := p.Now()

	// The same operations issued one by one.
	q := &sim.Proc{Node: 0}
	for _, h := range []int{1, 2, 3, 1} {
		f.RemoteAtomic(q, h, 0)
		f.RemoteRead(q, h, 4096, 0)
	}
	if pipelined >= q.Now() {
		t.Fatalf("line fetch (%d) not cheaper than serial operations (%d)", pipelined, q.Now())
	}
	// Lower bound: one round trip plus home 1's share (two registrations
	// and two page transfers serialized on its NIC).
	min := 2*f.P.RemoteLatency + 2*f.P.DirService + 2*f.P.TransferCost(4096)
	if pipelined < min {
		t.Fatalf("line fetch %d below physical floor %d", pipelined, min)
	}
	if f.NodeStats(0).DirOps.Load() != 4+4 {
		t.Fatalf("dir ops = %d, want 8", f.NodeStats(0).DirOps.Load())
	}
}

func TestLineFetchAllLocal(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	p := &sim.Proc{Node: 1}
	f.AtomicBurst(p, []AtomicItem{{Home: 1, Key: 0}, {Home: 1, Key: 1}})
	f.LineFetch(p, map[int]int{1: 2}, 4096, 0)
	if p.Now() >= f.P.RemoteLatency {
		t.Fatal("all-local line fetch paid network latency")
	}
}

// FetchLine charges NICs and paints their spans home by home in the order
// given (ascending), so Pictor's records of a fetch are the same on every run; the
// map adapter sorts its way to the same call.
func TestFetchLineHomeOrderAndMapAdapter(t *testing.T) {
	run := func(fetch func(f *Fabric, p *sim.Proc)) (sim.Time, []span.Record) {
		f := MustNew(testTopo(), DefaultParams())
		tr := trace.New(0)
		f.Obs = probe.NewSpine([]probe.Sink{tr})
		p := &sim.Proc{Node: 2}
		fetch(f, p)
		recs, _ := span.Records(tr.Events())
		var nic []span.Record
		for _, r := range recs {
			if r.Cat == span.NIC {
				nic = append(nic, r)
			}
		}
		return p.Now(), nic
	}
	// Home 3 has the longest share, so spans painted in ascending home order
	// end at non-decreasing times and the canonical sort keeps that order.
	want, wantNIC := run(func(f *Fabric, p *sim.Proc) {
		f.FetchLine(p, []HomePages{{0, 1}, {1, 2}, {2, 1}, {3, 4}}, 4096, 8)
	})
	if len(wantNIC) != 3 || wantNIC[0].Arg != 0 || wantNIC[1].Arg != 1 || wantNIC[2].Arg != 3 {
		t.Fatalf("NIC spans %+v, want one per remote home 0, 1, 3 in that order", wantNIC)
	}
	for i := 0; i < 20; i++ { // map iteration order is random per range
		got, gotNIC := run(func(f *Fabric, p *sim.Proc) {
			f.LineFetch(p, map[int]int{3: 4, 1: 2, 0: 1, 2: 1}, 4096, 8)
		})
		if got != want || !slices.Equal(gotNIC, wantNIC) {
			t.Fatalf("LineFetch(map): t=%d spans %+v, FetchLine: t=%d spans %+v", got, gotNIC, want, wantNIC)
		}
	}
}

func TestHandoverCostTiers(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	p := &sim.Proc{Node: 0, Socket: 0, Core: 0}
	same := f.HandoverCost(p, 0, 0, 0)
	core := f.HandoverCost(p, 0, 0, 1)
	sock := f.HandoverCost(p, 0, 1, 0)
	node := f.HandoverCost(p, 1, 0, 0)
	if !(same < core && core < sock && sock < node) {
		t.Fatalf("handover tiers out of order: %d %d %d %d", same, core, sock, node)
	}
}

func TestTotalStatsAggregates(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	p0 := &sim.Proc{Node: 0}
	p2 := &sim.Proc{Node: 2}
	f.RemoteWrite(p0, 1, 100, 0)
	f.RemoteWrite(p2, 3, 200, 0)
	tot := f.TotalStats()
	if tot.BytesSent != 300 {
		t.Fatalf("total bytes sent = %d, want 300", tot.BytesSent)
	}
	if tot.Messages != 2 {
		t.Fatalf("total messages = %d, want 2", tot.Messages)
	}
}

func TestPostWriteBurstEmptyAndLoopback(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	p := &sim.Proc{Node: 0}
	if failed := f.PostWriteBurst(p, nil); failed != nil || p.Now() != 0 {
		t.Fatalf("empty burst: failed=%v now=%d", failed, p.Now())
	}
	// All-local items pay DRAM plus one combined copy, never the network.
	items := []PostItem{{Home: 0, Bytes: 512}, {Home: 0, Bytes: 512}}
	if failed := f.PostWriteBurst(p, items); failed != nil {
		t.Fatalf("loopback burst failed %v", failed)
	}
	want := f.P.DRAMLatency + f.P.CopyCost(1024)
	if p.Now() != want {
		t.Fatalf("loopback burst cost %d, want %d", p.Now(), want)
	}
}

func TestPostWriteBurstCheaperThanSerialPosts(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	// 12 pages over homes 1..3, grouped by home.
	var items []PostItem
	for h := 1; h <= 3; h++ {
		for k := 0; k < 4; k++ {
			items = append(items, PostItem{Home: h, Bytes: 4096, Key: uint64(h*100 + k)})
		}
	}
	p := &sim.Proc{Node: 0}
	if failed := f.PostWriteBurst(p, items); len(failed) != 0 {
		t.Fatalf("fault-free burst failed %v", failed)
	}
	// The serial reference: each page posted on its own, as an eviction
	// posts it — a one-item burst.
	g := MustNew(testTopo(), DefaultParams())
	q := &sim.Proc{Node: 0}
	for _, it := range items {
		if failed := g.PostWriteBurst(q, []PostItem{it}); len(failed) != 0 {
			t.Fatal("fault-free post failed")
		}
	}
	if p.Now() >= q.Now() {
		t.Fatalf("burst (%d) not cheaper than serial posts (%d)", p.Now(), q.Now())
	}
	// Floor: one posting overhead per home plus one home's wire share.
	floor := 3*f.P.PostOverhead + 4*f.P.TransferCost(4096)
	if p.Now() < floor {
		t.Fatalf("burst %d below physical floor %d", p.Now(), floor)
	}
	// Byte accounting matches the serial path.
	if got, want := f.NodeStats(0).BytesSent.Load(), g.NodeStats(0).BytesSent.Load(); got != want {
		t.Fatalf("burst bytes sent %d, serial %d", got, want)
	}
}

func TestPostWriteBurstHomesOverlap(t *testing.T) {
	// Two homes, heavy pages: the per-home NIC services overlap, so the
	// burst beats the sum of the two homes' wire times.
	f := MustNew(testTopo(), DefaultParams())
	items := []PostItem{
		{Home: 1, Bytes: 64 << 10}, {Home: 2, Bytes: 64 << 10},
	}
	p := &sim.Proc{Node: 0}
	f.PostWriteBurst(p, items)
	wire := f.P.TransferCost(64 << 10)
	if p.Now() >= 2*f.P.PostOverhead+2*wire {
		t.Fatalf("burst %d paid both homes' wire serially (wire %d)", p.Now(), wire)
	}
}

func TestPostWriteBurstMatchesSerialFaultIdentity(t *testing.T) {
	// Under a drop plan, the burst must fail exactly the items a loop of
	// one-item bursts would fail: batching may not change Corvus verdicts.
	plan := fault.Plan{Seed: 7, Drop: 0.3}
	fb := MustNew(testTopo(), DefaultParams())
	fb.FI = fault.NewInjector(plan)
	fs := MustNew(testTopo(), DefaultParams())
	fs.FI = fault.NewInjector(plan)

	var items []PostItem
	for h := 1; h <= 3; h++ {
		for k := 0; k < 8; k++ {
			items = append(items, PostItem{Home: h, Bytes: 4096, Key: uint64(h)<<16 | uint64(k)})
		}
	}
	p := &sim.Proc{Node: 0}
	failed := fb.PostWriteBurst(p, items)

	q := &sim.Proc{Node: 0}
	var want []int
	for i, it := range items {
		if failed := fs.PostWriteBurst(q, []PostItem{it}); len(failed) != 0 {
			want = append(want, i)
		}
	}
	if len(want) == 0 {
		t.Fatal("test vacuous: no serial post failed under drop=0.3")
	}
	if len(failed) != len(want) {
		t.Fatalf("burst failed %v, serial failed %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("burst failed %v, serial failed %v", failed, want)
		}
	}
	// Drop accounting matches too.
	if got, want := fb.NodeStats(0).FaultsInjected.Load(), fs.NodeStats(0).FaultsInjected.Load(); got != want {
		t.Fatalf("burst drops %d, serial drops %d", got, want)
	}
	// Bumping the attempt re-draws the identity; escalation eventually
	// delivers every item.
	post := make([]PostItem, 0, len(failed))
	for _, i := range failed {
		it := items[i]
		it.Attempt++
		post = append(post, it)
	}
	for pass := 0; len(post) > 0; pass++ {
		if pass > int(64) {
			t.Fatal("burst retries did not converge")
		}
		idx := fb.PostWriteBurst(p, post)
		next := make([]PostItem, 0, len(idx))
		for _, i := range idx {
			it := post[i]
			it.Attempt++
			next = append(next, it)
		}
		post = next
	}
}

func TestCutSeveredDirections(t *testing.T) {
	f := MustNew(testTopo(), DefaultParams())
	if f.Severed(0, 1) || f.Severed(1, 0) {
		t.Fatal("fresh fabric reports severed links")
	}

	// Symmetric cut: Iso={1} severs every link crossing the mask, in both
	// directions, and nothing inside either side.
	f.SetCut(fault.Cut{Iso: []int{1}})
	for _, c := range []struct {
		a, b int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {3, 1, true},
		{0, 2, false}, {2, 3, false}, {1, 1, false},
	} {
		if got := f.Severed(c.a, c.b); got != c.want {
			t.Fatalf("symmetric cut: Severed(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}

	// One-way cut, shaped as fault.Plan.CutAt shapes it (its source in Iso):
	// exactly the directed link from→to is severed; the reverse direction and
	// every other pair stay connected.
	f.SetCut(fault.Cut{Iso: []int{2}, OneWay: true, From: 2, To: 0})
	for _, c := range []struct {
		a, b int
		want bool
	}{
		{2, 0, true},
		{0, 2, false}, {2, 1, false}, {2, 3, false}, {1, 0, false}, {0, 1, false},
	} {
		if got := f.Severed(c.a, c.b); got != c.want {
			t.Fatalf("one-way cut: Severed(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}

	// The zero Cut heals either shape.
	f.SetCut(fault.Cut{})
	if f.Severed(2, 0) {
		t.Fatal("one-way cut survives the zero Cut")
	}
	f.SetCut(fault.Cut{Iso: []int{1}})
	f.SetCut(fault.Cut{})
	if f.Severed(0, 1) {
		t.Fatal("symmetric cut survives the zero Cut")
	}
}
