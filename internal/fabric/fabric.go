// Package fabric models the cluster interconnect of the Argo DSM simulator:
// an RDMA-capable network (think QDR InfiniBand driven through MPI one-sided
// operations, as in the paper's prototype) plus the intra-node memory
// hierarchy tiers of a multi-socket NUMA machine.
//
// The fabric is purely a cost and accounting layer: it charges virtual time
// to the issuing Proc and serializes transfers on the target node's NIC
// (a sim.Resource, occupied in one place: occupyNIC), but it moves no bytes
// itself. Data movement is done by the memory and directory layers, which
// call into the fabric to pay for it.
// This split mirrors the paper's central design rule — all protocol actions
// are one-sided operations paid for by the requester; no message handlers
// run anywhere.
//
// The fabric is also where Corvus (package fault) injects failures: an
// operation can be dropped in flight, delayed, stalled at the target NIC, or
// — for remote atomics — fail transiently after the round trip. Because
// every protocol action is requester-paid and handler-free, recovery is
// requester-side too, and who owns a reissue depends on who waits for it.
// The fabric owns every operation its issuer waits on: RemoteRead,
// RemoteWrite, RemoteAtomic and FetchLine draw until delivered (deliver),
// paying a detection timeout and capped exponential backoff per loss, until
// the injector's escalation guarantee delivers them, and report the
// recovery; RemoteWrite and RemoteAtomic return the reissue count, which is
// all the lock and flag words need. The coherence layer owns the reissue of
// what nobody waits on at issue: posted writebacks (PostWriteBurst) and
// registration bursts (AtomicBurst) return their losses, which a fence or an
// eviction finds per flush and a miss per burst pass. Every operation carries
// a caller-chosen resource key (page number, lock id, flag id) that, together
// with the issuer, class, target and attempt index, forms the deterministic
// identity the injector hashes — so the injected schedule is reproducible
// across runs.
package fabric

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"argo/internal/fault"
	"argo/internal/probe"
	"argo/internal/sim"
	"argo/internal/stats"
)

// Params is the interconnect and memory-hierarchy cost model. All times are
// virtual nanoseconds. Defaults are calibrated in DefaultParams to the
// paper's testbed (Figure 1 trends, QDR InfiniBand through OpenMPI RMA).
type Params struct {
	// RemoteLatency is the one-way inter-node latency of a network
	// operation, including the software overhead of the one-sided MPI
	// path. A round trip costs 2*RemoteLatency plus transfer terms.
	RemoteLatency sim.Time
	// NsPerKB is the wire occupancy per kilobyte transferred; the
	// reciprocal is the saturated network bandwidth.
	NsPerKB sim.Time
	// DirService is the service time of a remote atomic (fetch-and-or on a
	// directory entry) at the target NIC.
	DirService sim.Time
	// PostOverhead is the issue cost of a posted (fire-and-forget)
	// one-sided write: building and injecting the descriptor. Posted
	// writes pipeline; only a fence waits for their completion.
	PostOverhead sim.Time
	// DRAMLatency is the local main-memory access latency.
	DRAMLatency sim.Time
	// SocketLatency is a cross-socket (NUMA) cache-to-cache transfer.
	SocketLatency sim.Time
	// LocalLatency is a same-socket cache-to-cache transfer.
	LocalLatency sim.Time
	// CacheHit is the cost of a load/store that hits in local caches; it
	// is also what a page-cache hit costs in Argo (after the fault-free
	// fast path, a DSM hit is an ordinary memory access).
	CacheHit sim.Time
	// MemCopyPerKB is the local memory-copy cost per kilobyte (twin
	// creation, checkpointing, diff application on the local side).
	MemCopyPerKB sim.Time
}

// DefaultParams returns the cost model used throughout the evaluation:
// a 3.4 GHz CPU against a QDR InfiniBand fabric driven by MPI one-sided
// operations. One-way latency includes MPI software overhead; the wire term
// saturates at ~2.5 GB/s, which is what the paper measures in Figure 7.
func DefaultParams() Params {
	return Params{
		RemoteLatency: 2500,
		NsPerKB:       400,
		DirService:    100,
		PostOverhead:  300,
		DRAMLatency:   60,
		SocketLatency: 120,
		LocalLatency:  40,
		CacheHit:      2,
		MemCopyPerKB:  60,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.RemoteLatency < 0 || p.NsPerKB < 0 || p.DirService < 0 || p.PostOverhead < 0 ||
		p.DRAMLatency < 0 || p.SocketLatency < 0 || p.LocalLatency < 0 ||
		p.CacheHit < 0 || p.MemCopyPerKB < 0 {
		return fmt.Errorf("fabric: negative cost in params %+v", p)
	}
	return nil
}

// TransferCost returns the wire occupancy of moving n bytes.
func (p Params) TransferCost(n int) sim.Time {
	return sim.Time(n) * p.NsPerKB / 1024
}

// CopyCost returns the local memory-copy cost of n bytes.
func (p Params) CopyCost(n int) sim.Time {
	return sim.Time(n) * p.MemCopyPerKB / 1024
}

// Fabric is the interconnect instance for one simulated cluster.
type Fabric struct {
	P    Params
	Topo sim.Topology

	// Obs, when non-nil, hears of every remote operation (issue to completion
	// on the issuer's lane), of the narrower target-NIC occupancy inside it,
	// and of every injected fault, backoff and reissue. Loopback emits nothing.
	Obs *probe.Spine

	// FI, when non-nil, injects faults into remote operations. A nil
	// injector is the fault-free fast path (one pointer test per op).
	FI *fault.Injector

	nics  []sim.Resource // per-node NIC DMA engines
	nodes []*stats.Node

	// cut, when non-nil, is the active partial partition. A symmetric cut
	// isolates a minority mask: any operation crossing the cut
	// (isolated↔majority in either direction) is severed. A one-way cut
	// (Cygnus III) severs only the directed link from→to: the source's
	// traffic toward the target is dropped while every other pair —
	// including target→source — keeps flowing. A severed operation behaves
	// exactly like an injected drop, except that no retry budget escalates
	// it; it cannot deliver until the cut clears. Installed and cleared only
	// at member-barrier episode completions (package core), so every issue
	// site observes a deterministic cut state. Fault-free runs never touch
	// it: the fast path is one atomic nil load.
	cut atomic.Pointer[cutState]
}

// cutState is one installed partition cut: either a symmetric minority
// mask (iso) or a directed one-way pair (oneWay/from/to).
type cutState struct {
	iso      []bool
	oneWay   bool
	from, to int
}

// SetCut installs a symmetric partition cut: isolated[n] puts node n on
// the minority side. A nil slice is equivalent to ClearCut.
func (f *Fabric) SetCut(isolated []bool) {
	if isolated == nil {
		f.cut.Store(nil)
		return
	}
	f.cut.Store(&cutState{iso: append([]bool{}, isolated...)})
}

// SetOneWayCut installs an asymmetric cut severing only the directed link
// from→to. Every issue site already passes (issuer, target) to Severed, so
// direction-awareness needs no per-path changes: ops issued by from toward
// to are dropped, the reverse direction and every other pair flow.
func (f *Fabric) SetOneWayCut(from, to int) {
	f.cut.Store(&cutState{oneWay: true, from: from, to: to})
}

// ClearCut heals the partition: full reachability is restored.
func (f *Fabric) ClearCut() { f.cut.Store(nil) }

// Severed reports whether an operation issued by node a toward node b
// crosses the active cut. Symmetric cuts sever both directions; a one-way
// cut severs exactly (a, b) == (from, to).
func (f *Fabric) Severed(a, b int) bool {
	c := f.cut.Load()
	if c == nil {
		return false
	}
	if c.oneWay {
		return a == c.from && b == c.to
	}
	return c.iso[a] != c.iso[b]
}

// draw is the verdict on one attempt of an operation of class cl from p to
// home: the injector's, or — across the cut — the zero one, delivering nothing.
func (f *Fabric) draw(p *sim.Proc, cl fault.Class, home int, key uint64, attempt int) (v fault.Verdict) {
	if !f.Severed(p.Node, home) {
		v = f.FI.Draw(p.Node, cl, home, key, attempt)
	}
	return v
}

// deliver draws verdicts for an operation of class cl from p to home, from
// attempt on, until one delivers: each loss charges the detection timeout
// and a backoff. It returns the delivering verdict and its attempt index.
func (f *Fabric) deliver(p *sim.Proc, cl fault.Class, home int, key uint64, attempt int) (fault.Verdict, int) {
	for {
		v := f.draw(p, cl, home, key, attempt)
		if v.Deliver {
			return v, attempt
		}
		f.lost(p, cl)
		f.Backoff(p, attempt)
		attempt++
	}
}

// New creates a fabric for the given topology and cost model, with one
// stats.Node per machine. Invalid topologies or parameters surface as
// errors; MustNew panics instead for static configurations.
func New(topo sim.Topology, p Params) (*Fabric, error) {
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{
		P:     p,
		Topo:  topo,
		nics:  make([]sim.Resource, topo.Nodes),
		nodes: make([]*stats.Node, topo.Nodes),
	}
	for i := range f.nodes {
		f.nodes[i] = &stats.Node{}
	}
	return f, nil
}

// MustNew is New for configurations known statically to be valid; it panics
// on error.
func MustNew(topo sim.Topology, p Params) *Fabric {
	f, err := New(topo, p)
	if err != nil {
		panic(err)
	}
	return f
}

// SetFaults attaches a fault injector. A nil injector disables injection.
func (f *Fabric) SetFaults(in *fault.Injector) { f.FI = in }

// NodeStats returns the counters of node n.
func (f *Fabric) NodeStats(n int) *stats.Node { return f.nodes[n] }

// TotalStats aggregates all nodes' counters.
func (f *Fabric) TotalStats() stats.Snapshot {
	var s stats.Snapshot
	for _, n := range f.nodes {
		s.Add(n.Snapshot())
	}
	return s
}

// ResetNICs clears virtual NIC occupancy (used between measurement phases).
func (f *Fabric) ResetNICs() {
	for i := range f.nics {
		f.nics[i].Reset()
	}
}

// occupyNIC is the NIC occupancy of every operation: service nanoseconds of
// work arriving at node home's NIC at time at queue behind the NIC's earlier
// occupants, and p waits until the work is done. The prototype's limit of
// one in-flight fetch per node is the cache layer's (cache.Cache.FetchGate).
func (f *Fabric) occupyNIC(p *sim.Proc, home int, at, service sim.Time) {
	f.nics[home].OccupyAt(p, at, service)
	f.Obs.Since(p, at, probe.NIC, int64(home), 0)
}

// done completes a single remote operation p issued at t0: one network
// transaction, and the op's event (arg names its target).
func (f *Fabric) done(p *sim.Proc, t0 sim.Time, op probe.Kind, arg int64) {
	f.nodes[p.Node].Messages.Add(1)
	f.Obs.Since(p, t0, op, arg, 0)
}

// RemoteRead charges for an RDMA read of n bytes homed at node home, issued
// by p. A loopback read (home == p.Node) costs only local memory time. key
// names the resource being read for fault identity (page number, word
// address). A dropped read times out, backs off and reissues until
// delivered.
func (f *Fabric) RemoteRead(p *sim.Proc, home, n int, key uint64) {
	if home == p.Node {
		p.Advance(f.P.DRAMLatency + f.P.CopyCost(n))
		return
	}
	t0 := p.Now()
	v, attempt := f.deliver(p, fault.ClassRead, home, key, 0)
	f.noteInjected(p, v)
	p.Advance(f.P.RemoteLatency + v.Delay) // request reaches the home NIC
	f.occupyNIC(p, home, p.Now(), f.P.TransferCost(n)+v.Stall)
	p.Advance(f.P.RemoteLatency) // data returns
	f.recovered(p, t0, fault.ClassRead, attempt)
	f.nodes[home].BytesSent.Add(int64(n))
	f.nodes[p.Node].BytesReceived.Add(int64(n))
	f.done(p, t0, probe.OpRead, int64(home))
}

// RemoteWrite charges for an RDMA write of n bytes to node home, issued by
// p, reissues it until delivered and returns the reissue count. The paper's
// writebacks are fire-and-forget until a fence; we charge the posting cost
// (latency + wire) to the issuer, which is conservative.
func (f *Fabric) RemoteWrite(p *sim.Proc, home, n int, key uint64) int {
	if home == p.Node {
		p.Advance(f.P.DRAMLatency + f.P.CopyCost(n))
		return 0
	}
	t0 := p.Now()
	v, attempt := f.deliver(p, fault.ClassWrite, home, key, 0)
	t1 := p.Now()
	f.noteInjected(p, v)
	p.Advance(f.P.RemoteLatency + v.Delay)
	f.occupyNIC(p, home, p.Now(), f.P.TransferCost(n)+v.Stall)
	f.nodes[p.Node].BytesSent.Add(int64(n))
	f.nodes[home].BytesReceived.Add(int64(n))
	f.done(p, t1, probe.OpWrite, int64(home))
	f.recovered(p, t0, fault.ClassWrite, attempt)
	return attempt
}

// HomePages counts a line fetch's page transfers from one home node.
type HomePages struct{ Home, Pages int }

// LineFetch is FetchLine for a caller that holds the per-home page counts as
// a map (pages[h] transfers from home h): the perf ledger's unit-cost driver.
// The miss path tallies in order and calls FetchLine itself.
func (f *Fabric) LineFetch(p *sim.Proc, pages map[int]int, bytesEach int, key uint64) {
	var buf [8]HomePages
	homes := buf[:0]
	for h, c := range pages {
		homes = append(homes, HomePages{h, c})
	}
	slices.SortFunc(homes, func(a, b HomePages) int { return cmp.Compare(a.Home, b.Home) })
	f.FetchLine(p, homes, bytesEach, key)
}

// FetchLine charges for one cache-line fetch (Argo's prefetching): the
// page transfers of the line's pages are independent one-sided reads, so
// the implementation posts them together. The line's Pyxis registrations
// travel separately as an AtomicBurst (the coherence layer issues it just
// before the fetch); here the whole transfer burst shares one request and
// one response latency, at each involved home the NIC serializes that
// home's share, and distinct homes overlap. homes lists each involved home
// once, in ascending order, and NICs are charged and spans emitted in that
// order. key is the line's base page; the fault target is the smallest
// remote home involved, and a dropped burst is reissued whole after
// timeout + backoff.
func (f *Fabric) FetchLine(p *sim.Proc, homes []HomePages, bytesEach int, key uint64) {
	target := -1
	for _, hp := range homes {
		switch {
		case hp.Home == p.Node:
			// Local work first: loopback page copies.
			if hp.Pages > 0 {
				p.Advance(f.P.DRAMLatency + f.P.CopyCost(hp.Pages*bytesEach))
			}
		case target < 0:
			target = hp.Home
		}
	}
	if target < 0 {
		return
	}
	tRemote := p.Now()
	v, attempt := f.deliver(p, fault.ClassFetch, target, key, 0)
	f.noteInjected(p, v)
	p.Advance(f.P.RemoteLatency + v.Delay)
	arrival := p.Now()
	wire := f.P.TransferCost(bytesEach)
	for _, hp := range homes {
		if hp.Home == p.Node {
			continue
		}
		service := sim.Time(hp.Pages) * wire
		if hp.Home == target {
			service += v.Stall // charged once, at the fault-target home
		}
		n := hp.Pages * bytesEach
		f.occupyNIC(p, hp.Home, arrival, service)
		f.nodes[p.Node].Messages.Add(1)
		f.nodes[hp.Home].BytesSent.Add(int64(n))
		f.nodes[p.Node].BytesReceived.Add(int64(n))
	}
	p.Advance(f.P.RemoteLatency)
	f.recovered(p, tRemote, fault.ClassFetch, attempt)
	f.Obs.Since(p, tRemote, probe.OpFetch, int64(key), 0)
}

// PostItem is one page of a downgrade: a posted one-sided write of Bytes
// bytes to node Home. Key (the page number) and Attempt (the reissue count)
// make its Corvus fault identity, which does not depend on the burst it
// rides in — so chaos verdicts and replay schedules are unchanged by
// batching.
type PostItem struct {
	Home    int
	Bytes   int
	Key     uint64
	Attempt int
}

// PostWriteBurst posts downgrades as per-home pipelined bursts (the
// downgrade-side symmetric of FetchLine): a fence's collected pages, or one
// evicted page. Items must be grouped
// by home (the coherence layer sorts by home, then page, which also keeps
// the issue order deterministic). The cost model per remote home: the issuer
// pays one PostOverhead for the home's descriptor chain instead of one per
// page, every delivered page contributes its wire occupancy to one NIC
// service interval, and distinct homes overlap — all shares arrive at the
// post time (shifted by the home's largest injected delay) and serialize
// only at their target NIC. Loopback items are one DRAM access plus the
// summed copy cost.
//
// Faults are drawn per item with the (issuer, ClassPost, home, key, attempt)
// identity; a dropped item vanishes without NIC occupancy, and its issuer
// still paid the post overhead. The indices of dropped items
// are returned; the caller owns detection, backoff and reissue (loopback
// items always deliver).
func (f *Fabric) PostWriteBurst(p *sim.Proc, items []PostItem) (failed []int) {
	if len(items) == 0 {
		return nil
	}
	t0 := p.Now()
	// Issue phase: one descriptor chain per remote home, one DRAM access
	// for the loopback batch.
	localBytes, localAny := 0, false
	remoteHomes := 0
	prev := -1
	for _, it := range items {
		if it.Home == p.Node {
			localBytes += it.Bytes
			localAny = true
		} else if it.Home != prev {
			remoteHomes++
		}
		prev = it.Home
	}
	if localAny {
		p.Advance(f.P.DRAMLatency + f.P.CopyCost(localBytes))
	}
	if remoteHomes == 0 {
		return nil
	}
	p.Advance(sim.Time(remoteHomes) * f.P.PostOverhead)
	tPost := p.Now()

	delivered := 0
	for i := 0; i < len(items); {
		h := items[i].Home
		if h == p.Node {
			i++
			continue
		}
		var service, delayMax sim.Time
		sent := 0
		severed := f.Severed(p.Node, h)
		for ; i < len(items) && items[i].Home == h; i++ {
			it := items[i]
			var v fault.Verdict // across the cut: the zero verdict, as in draw
			if !severed {
				v = f.FI.Draw(p.Node, fault.ClassPost, h, it.Key, it.Attempt)
			}
			if !v.Deliver {
				// The write vanished in flight: no NIC occupancy at the
				// target, no bytes delivered.
				f.injected(p, probe.FaultDrop)
				failed = append(failed, i)
				continue
			}
			f.noteInjected(p, v)
			if v.Delay > delayMax {
				delayMax = v.Delay
			}
			service += f.P.TransferCost(it.Bytes) + v.Stall
			f.nodes[p.Node].Messages.Add(1)
			f.nodes[p.Node].BytesSent.Add(int64(it.Bytes))
			f.nodes[h].BytesReceived.Add(int64(it.Bytes))
			sent++
		}
		if sent == 0 {
			continue
		}
		delivered += sent
		f.occupyNIC(p, h, tPost+delayMax, service)
	}
	if delivered > 0 {
		f.Obs.Since(p, t0, probe.OpPostBurst, int64(delivered), 0)
	}
	return failed
}

// AtomicItem is one fetch-and-or of a registration burst: a remote atomic
// on a directory word homed at node Home, carrying the same Corvus fault
// identity a lone remote atomic on that word would (Key is the page number,
// Attempt the reissue count) — so batching never perturbs chaos verdicts.
type AtomicItem struct {
	Home    int
	Key     uint64
	Attempt int
}

// AtomicBurst posts a line fetch's collected Pyxis fetch-and-or
// registrations as per-home pipelined bursts — the write half of the
// batched-registration optimization (the read half is directory.CachedMany).
// Items must be sorted by home (the coherence layer sorts by home, then
// page, keeping the issue order deterministic). Cost model per remote home:
// one PostOverhead for the descriptor chain instead of a full round trip
// per word, each surviving fetch-and-or contributes one DirService to a
// single NIC service interval, and distinct homes overlap; the combined
// full-map result rides back with the page transfers of the line fetch that
// follows. Loopback items are one DRAM access each.
//
// Faults are drawn per item with the (issuer, ClassAtomic, home, key,
// attempt) identity of the unbatched path. A dropped item vanishes without
// NIC occupancy; a transient atomic failure reaches the NIC (occupancy and
// accounting happen) but the OR does not take effect. Either way the item's
// index is returned and the caller owns detection, backoff and reissue —
// reissue is safe because fetch-and-OR is idempotent.
func (f *Fabric) AtomicBurst(p *sim.Proc, items []AtomicItem) (failed []int) {
	if len(items) == 0 {
		return nil
	}
	t0 := p.Now()
	remoteHomes := 0
	prev := -1
	for _, it := range items {
		if it.Home == p.Node {
			p.Advance(f.P.DRAMLatency)
			f.nodes[p.Node].DirOps.Add(1)
		} else if it.Home != prev {
			remoteHomes++
		}
		prev = it.Home
	}
	if remoteHomes == 0 {
		return nil
	}
	p.Advance(sim.Time(remoteHomes) * f.P.PostOverhead)
	tPost := p.Now()

	delivered := 0
	for i := 0; i < len(items); {
		h := items[i].Home
		if h == p.Node {
			i++
			continue
		}
		var service, delayMax sim.Time
		sent := 0
		severed := f.Severed(p.Node, h)
		for ; i < len(items) && items[i].Home == h; i++ {
			it := items[i]
			var v fault.Verdict // across the cut: the zero verdict, as in draw
			if !severed {
				v = f.FI.Draw(p.Node, fault.ClassAtomic, h, it.Key, it.Attempt)
			}
			if !v.Deliver {
				f.injected(p, probe.FaultDrop)
				failed = append(failed, i)
				continue
			}
			f.noteInjected(p, v)
			if v.Delay > delayMax {
				delayMax = v.Delay
			}
			service += f.P.DirService + v.Stall
			f.nodes[p.Node].Messages.Add(1)
			f.nodes[p.Node].DirOps.Add(1)
			if v.AtomicFail {
				// Reached the NIC but the OR did not take effect.
				failed = append(failed, i)
				continue
			}
			sent++
		}
		if service > 0 {
			f.occupyNIC(p, h, tPost+delayMax, service)
		}
		delivered += sent
	}
	if delivered > 0 {
		f.Obs.Since(p, t0, probe.OpRegBurst, int64(delivered), 0)
	}
	return failed
}

// RemoteAtomic charges for a remote atomic (fetch-and-or / fetch-and-add /
// CAS) on a word homed at node home, issued by p, reissues it until it takes
// effect and returns the reissue count. The home NIC performs the operation;
// no remote CPU is involved. key names the word for fault identity (page
// number, lock id). A transient atomic failure charges the full round trip
// and then backs off like a drop: it fails before the operation's effect,
// which is what makes reissuing a non-idempotent atomic safe.
func (f *Fabric) RemoteAtomic(p *sim.Proc, home int, key uint64) int {
	if home == p.Node {
		p.Advance(f.P.DRAMLatency)
		return 0
	}
	t0 := p.Now()
	for attempt := 0; ; attempt++ {
		var v fault.Verdict
		v, attempt = f.deliver(p, fault.ClassAtomic, home, key, attempt)
		t1 := p.Now()
		f.noteInjected(p, v)
		p.Advance(f.P.RemoteLatency + v.Delay)
		f.occupyNIC(p, home, p.Now(), f.P.DirService+v.Stall)
		p.Advance(f.P.RemoteLatency)
		f.nodes[p.Node].DirOps.Add(1)
		f.done(p, t1, probe.OpAtomic, int64(home))
		if !v.AtomicFail {
			f.recovered(p, t0, fault.ClassAtomic, attempt)
			return attempt
		}
		f.CountRetries(p, fault.ClassAtomic, 1)
		f.Backoff(p, attempt)
	}
}

// HandoverCost returns the cost of transferring a contended cache line from
// the core that last held it to p: same core ~ hit, same socket ~ local,
// other socket ~ NUMA, other node ~ network round trip.
func (f *Fabric) HandoverCost(p *sim.Proc, lastNode, lastSocket, lastCore int) sim.Time {
	switch {
	case lastNode != p.Node:
		return 2 * f.P.RemoteLatency
	case lastSocket != p.Socket:
		return f.P.SocketLatency
	case lastCore != p.Core:
		return f.P.LocalLatency
	default:
		return f.P.CacheHit
	}
}
