package lu

import (
	"math"
	"strings"
	"testing"

	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/workloads/wload"
)

// The fault-free crash-tolerant program is still the factorization: its
// final matrix must be bit-identical to the serial reference.
func TestCrashLUFaultFreeMatchesSerial(t *testing.T) {
	p := DefaultCrashParams()
	rep, err := RunCrash(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := wload.Digest(digestBasis, Serial(p.Params)); rep.Digest != want {
		t.Fatalf("fault-free crash LU digest %016x, serial reference %016x", rep.Digest, want)
	}
	if rep.Deaths != 0 || rep.Partitions != 0 || rep.Epoch != 0 {
		t.Fatalf("fault-free run mutated membership: %+v", rep)
	}
}

// Crash-stop deaths mid-factorization: repairs restore the bit-exact
// fault-free matrix, and same-seed replays agree on everything.
func TestCrashLUReplayCrashes(t *testing.T) {
	plan := mustPlan("crash=0.06,seed=20150615")
	rep, err := ReplayCheck(DefaultCrashParams(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths == 0 {
		t.Fatal("plan injected no crashes — rate too low to exercise repair")
	}
	if !strings.Contains(rep.History, "crash") {
		t.Fatalf("history records no crash: %q", rep.History)
	}
}

// Partial partitions: both sides idle through the cut, the minority heals
// without excision, and the matrix still matches fault-free bit for bit.
func TestCrashLUReplayPartitions(t *testing.T) {
	plan := mustPlan("partition=0.15,partdur=2,seed=7")
	rep, err := ReplayCheck(DefaultCrashParams(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partitions == 0 {
		t.Fatal("plan injected no partitions — rate too low to exercise heal")
	}
	if rep.Deaths != 0 {
		t.Fatalf("partition-only plan recorded %d deaths", rep.Deaths)
	}
	if !strings.Contains(rep.History, "suspect") || !strings.Contains(rep.History, "heal") {
		t.Fatalf("history records no suspect/heal cycle: %q", rep.History)
	}
}

// Crashes and partitions under one plan: heal-vs-excise decisions serialize
// at the membership barrier and stay bit-identical across replays.
func TestCrashLUReplayMixed(t *testing.T) {
	plan := mustPlan("crash=0.05,partition=0.12,partdur=1,seed=11")
	rep, err := ReplayCheck(DefaultCrashParams(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths == 0 && rep.Partitions == 0 {
		t.Fatal("mixed plan injected neither crashes nor partitions")
	}
}

// Crash-restart plans (Cygnus III): rejoining nodes keep their membership
// slot, their lost kernels re-run from home truth, and the runtime's
// restart rendezvous serializes every rejoin past the in-flight reset —
// same-seed runs agree on digests and the full decision history.
func TestCrashLUReplayRestarts(t *testing.T) {
	plan := mustPlan("crash=0.06,crashrestart=on,seed=20150615")
	rep, err := ReplayCheck(DefaultCrashParams(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths == 0 {
		t.Fatal("plan injected no crashes — rate too low to exercise restart")
	}
	if !strings.Contains(rep.History, "rejoin") {
		t.Fatalf("restart plan recorded no rejoin: %q", rep.History)
	}
	if strings.Count(rep.History, "rejoin") != strings.Count(rep.History, "excise") {
		t.Fatalf("restart plan left a node excised: %q", rep.History)
	}
}

// One-way cuts (partcut=a>b): only the source node is parked and suspected,
// the target stays a full member, and the factorization still recovers the
// bit-exact fault-free matrix with a deterministic decision history.
func TestCrashLUReplayOneWayCut(t *testing.T) {
	plan := mustPlan("partition=0.15,partdur=2,seed=7")
	plan.PartitionOneWay = true
	plan.PartitionFrom, plan.PartitionTo = 1, 4
	rep, err := ReplayCheck(DefaultCrashParams(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partitions == 0 {
		t.Fatal("plan injected no one-way cuts — rate too low to exercise the asymmetric path")
	}
	if !strings.Contains(rep.History, "suspect(n1)") || !strings.Contains(rep.History, "heal(n1)") {
		t.Fatalf("history records no suspect/heal cycle for the source: %q", rep.History)
	}
	if strings.Contains(rep.History, "suspect(n4)") {
		t.Fatalf("one-way cut suspected its target (double-excise hazard): %q", rep.History)
	}
	if rep.Deaths != 0 || strings.Contains(rep.History, "excise") {
		t.Fatalf("one-way cut cost a membership: %+v", rep)
	}
}

// A scripted plan — a crash-stop, a crash-restart, a symmetric cut and a
// one-way cut, no rates — is a spec like any other: the factorization
// repairs to the fault-free matrix and replays its decisions under it.
func TestCrashLUReplayScriptedPlan(t *testing.T) {
	plan := mustPlan("crashat=2@3,restartat=4@5,cutat=1@7:2+3>0@10:1,seed=7")
	rep, err := ReplayCheck(DefaultCrashParams(), plan)
	if err != nil {
		t.Fatal(err)
	}
	want := "ep0:crash(n2)@e3 ep1:excise(n2)@e3 ep1:crash(n4)@e5 ep2:excise(n4)@e5 ep3:rejoin(n4)@e5 " +
		"ep3:suspect(n1)@e7 ep4:heal(n1)@e8 ep4:suspect(n3)@e10 ep5:heal(n3)@e10"
	if rep.Deaths != 2 || rep.Partitions != 2 || rep.History != want {
		t.Fatalf("deaths %d partitions %d, decisions\n  %s\nwant\n  %s", rep.Deaths, rep.Partitions, rep.History, want)
	}
}

// The full Cygnus III chaos stack under one plan: crash-restarts at lock
// and flag safe points, one-way cuts, transient faults — recovery to the
// fault-free image and bit-exact same-seed replay must survive the
// composition.
func TestCrashLUReplayRestartOneWayMixed(t *testing.T) {
	plan := mustPlan("drop=0.005,crash=0.05,crashrestart=on,crashpoints=lock+flag,partition=0.1,partdur=1,seed=13")
	plan.PartitionOneWay = true
	plan.PartitionFrom, plan.PartitionTo = 2, 0
	rep, err := ReplayCheck(DefaultCrashParams(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths == 0 && rep.Partitions == 0 {
		t.Fatal("mixed plan injected neither restarts nor cuts")
	}
}

// mustPlan parses a fault-plan spec the test wrote out itself.
func mustPlan(spec string) fault.Plan {
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		panic(err)
	}
	return plan
}

// TestInPlaceAnswersAreTheDumpFolds: RunArgo's checksum and RunCrash's
// digest, fault-free and with crashes repaired, are read in place from the
// finished cluster and equal the folds over DumpF64's copy of the same matrix
// bit for bit.
func TestInPlaceAnswersAreTheDumpFolds(t *testing.T) {
	folds := 0
	checksum := func(c *core.Cluster, s core.F64Slice) float64 {
		folds++
		in, dump := wload.ChecksumOf(c, s), wload.Checksum(c.DumpF64(s))
		if math.Float64bits(in) != math.Float64bits(dump) {
			t.Errorf("checksum in place %v, over the dump %v", in, dump)
		}
		return in
	}
	digest := func(basis uint64, c *core.Cluster, s core.F64Slice) uint64 {
		folds++
		in, dump := wload.DigestOf(basis, c, s), wload.Digest(basis, c.DumpF64(s))
		if in != dump {
			t.Errorf("digest in place %016x, over the dump %016x", in, dump)
		}
		return in
	}
	if r := runArgo(wload.ArgoConfig(2, 8<<20), testParams(), 2, checksum); r.Check != wload.Checksum(Serial(testParams())) {
		t.Fatalf("RunArgo checksum %v, serial %v", r.Check, wload.Checksum(Serial(testParams())))
	}
	plan := mustPlan("crash=0.06,seed=20150615")
	for _, faults := range []*fault.Plan{nil, &plan} {
		p := DefaultCrashParams()
		p.Faults = faults
		rep, err := runCrash(p, digest)
		if err != nil {
			t.Fatal(err)
		}
		if faults != nil && rep.Deaths == 0 {
			t.Fatal("the crashing plan crashed nobody")
		}
	}
	if folds != 3 {
		t.Fatalf("%d answers folded, want 3", folds)
	}
}
