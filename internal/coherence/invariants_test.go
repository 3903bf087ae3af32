package coherence

import (
	"strings"
	"testing"

	"argo/internal/cache"
	"argo/internal/mem"
)

func TestInvariantsHoldDuringUse(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	for pg := 0; pg < 8; pg++ {
		r.write64(0, mem.Addr(pg*4096), byte(pg+1))
		r.read64(1, mem.Addr(pg*4096))
	}
	for n := 0; n < 2; n++ {
		if err := r.nodes[n].CheckInvariants(); err != nil {
			t.Fatalf("invariants violated mid-epoch: %v", err)
		}
	}
	r.nodes[0].SDFence(r.procs[0])
	if err := r.nodes[0].CheckQuiesced(); err != nil {
		t.Fatalf("quiesce check failed after SD: %v", err)
	}
	r.nodes[0].SIFence(r.procs[0])
	if err := r.nodes[0].CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after SI: %v", err)
	}
}

func TestInvariantsDetectMissingTwin(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	r.write64(0, 0, 1)
	n := r.nodes[0]
	l := n.Cache.LineOf(0)
	ln := n.Cache.LockLine(l)
	n.Cache.SlotOf(ln, 0).Twin = nil // corrupt: dirty without a twin
	ln.Unlock()
	err := n.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "twin") {
		t.Fatalf("missing twin not detected: %v", err)
	}
}

func TestInvariantsDetectWrongSlot(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	r.read64(0, 0)
	n := r.nodes[0]
	ln := n.Cache.LockLine(0)
	n.Cache.SlotOf(ln, 0).Page = 5 // corrupt: tag points elsewhere
	ln.Unlock()
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("wrong-slot corruption not detected")
	}
}

func TestInvariantsDetectUnregisteredDirtyWriter(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	r.read64(0, 0)
	n := r.nodes[0]
	ln := n.Cache.LockLine(0)
	s := n.Cache.SlotOf(ln, 0)
	s.St = cache.Dirty // corrupt: dirty without write-miss protocol
	n.Cache.EnsureTwin(s)
	ln.Unlock()
	err := n.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "writer registration") {
		t.Fatalf("unregistered writer not detected: %v", err)
	}
}

func TestQuiescedDetectsDirtyLeftover(t *testing.T) {
	r := newRig(t, Options{Mode: ModePS3})
	r.write64(0, 0, 1)
	// No SD fence: the page is legitimately dirty, so CheckQuiesced (and
	// only it) must complain.
	if err := r.nodes[0].CheckInvariants(); err != nil {
		t.Fatalf("plain invariants should hold: %v", err)
	}
	if err := r.nodes[0].CheckQuiesced(); err == nil {
		t.Fatal("dirty page after 'quiesce' not detected")
	}
}
