package fault

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestParsePlan(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		check   func(t *testing.T, p Plan)
	}{
		{spec: "drop=0.01,stall=5us,seed=42", check: func(t *testing.T, p Plan) {
			if p.Drop != 0.01 || p.Stall != 5000 || p.Seed != 42 {
				t.Fatalf("got %+v", p)
			}
			if p.StallP != 0.01 {
				t.Fatalf("stallp default: got %g want 0.01", p.StallP)
			}
		}},
		{spec: "delay=0.05,jitter=2us", check: func(t *testing.T, p Plan) {
			if p.Delay != 0.05 || p.Jitter != 2000 {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "delay=0.05", check: func(t *testing.T, p Plan) {
			if p.Jitter == 0 {
				t.Fatal("delay without jitter should default jitter")
			}
		}},
		{spec: "atomicfail=0.1", check: func(t *testing.T, p Plan) {
			if p.AtomicFail != 0.1 || !p.Enabled() {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "stall=1ms,stallp=0.5", check: func(t *testing.T, p Plan) {
			if p.Stall != 1_000_000 || p.StallP != 0.5 {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "", check: func(t *testing.T, p Plan) {
			if p.Enabled() {
				t.Fatal("empty spec should be fault-free")
			}
		}},
		{spec: "drop=1.5", wantErr: true},
		{spec: "drop=-0.1", wantErr: true},
		{spec: "bogus=1", wantErr: true},
		{spec: "drop", wantErr: true},
		{spec: "jitter=-5us", wantErr: true},
	}
	for _, c := range cases {
		p, err := ParsePlan(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePlan(%q): want error, got %+v", c.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.spec, err)
			continue
		}
		if c.check != nil {
			c.check(t, p)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	p, err := ParsePlan("drop=0.02,delay=0.05,jitter=3us,stall=5us,stallp=0.01,atomicfail=0.1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n  p=%+v\n  q=%+v", p, q)
	}
}

func TestDrawDeterminism(t *testing.T) {
	p, _ := ParsePlan("drop=0.1,delay=0.1,jitter=2us,stall=3us,stallp=0.05,atomicfail=0.2,seed=1234")
	a, b := NewInjector(p), NewInjector(p)
	faulty := 0
	for issuer := 0; issuer < 4; issuer++ {
		for cl := Class(0); cl < NumClasses; cl++ {
			for target := 0; target < 4; target++ {
				for key := uint64(0); key < 64; key++ {
					for attempt := 0; attempt < 3; attempt++ {
						va := a.Draw(issuer, cl, target, key, attempt)
						vb := b.Draw(issuer, cl, target, key, attempt)
						if va != vb {
							t.Fatalf("verdict mismatch at (%d,%v,%d,%d,%d): %+v vs %+v",
								issuer, cl, target, key, attempt, va, vb)
						}
						if va != (Verdict{Deliver: true}) {
							faulty++
						}
					}
				}
			}
		}
	}
	if faulty == 0 {
		t.Fatal("expected some injected events at these rates")
	}
}

func TestDrawSeedSensitivity(t *testing.T) {
	p1, _ := ParsePlan("drop=0.5,seed=1")
	p2, _ := ParsePlan("drop=0.5,seed=2")
	a, b := NewInjector(p1), NewInjector(p2)
	same := 0
	const n = 1000
	for key := uint64(0); key < n; key++ {
		if a.Draw(0, ClassRead, 1, key, 0).Deliver == b.Draw(0, ClassRead, 1, key, 0).Deliver {
			same++
		}
	}
	// Two independent 0.5 streams agree ~50% of the time; 100% agreement
	// would mean the seed is ignored.
	if same > n*9/10 {
		t.Fatalf("seeds 1 and 2 agree on %d/%d verdicts — seed ignored?", same, n)
	}
}

func TestDrawDistribution(t *testing.T) {
	p, _ := ParsePlan("drop=0.1,seed=99")
	in := NewInjector(p)
	dropped := 0
	const n = 20000
	for key := uint64(0); key < n; key++ {
		if !in.Draw(3, ClassFetch, 0, key, 0).Deliver {
			dropped++
		}
	}
	got := float64(dropped) / n
	if math.Abs(got-0.1) > 0.02 {
		t.Fatalf("drop rate %g, want ~0.1", got)
	}
}

func TestDrawEscalation(t *testing.T) {
	// Even at drop=1, attempts at/after maxRetries must deliver.
	p, _ := ParsePlan("drop=1,atomicfail=1,seed=5")
	in := NewInjector(p)
	for a := 0; a < maxRetries; a++ {
		if in.Draw(0, ClassRead, 1, 7, a).Deliver {
			t.Fatalf("attempt %d delivered under drop=1", a)
		}
	}
	v := in.Draw(0, ClassRead, 1, 7, maxRetries)
	if !v.Deliver || v.AtomicFail || v.Delay != 0 || v.Stall != 0 {
		t.Fatalf("escalation attempt not clean: %+v", v)
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	v := in.Draw(0, ClassAtomic, 1, 0, 0)
	if !v.Deliver || v.AtomicFail || v.Delay != 0 || v.Stall != 0 {
		t.Fatalf("nil injector must deliver cleanly, got %+v", v)
	}
}

func TestNewInjectorFaultFree(t *testing.T) {
	if NewInjector(Plan{Seed: 42}) != nil {
		t.Fatal("fault-free plan should yield a nil injector")
	}
	p, _ := ParsePlan("drop=0.01,seed=1")
	if NewInjector(p) == nil {
		t.Fatal("lossy plan should yield an injector")
	}
}

func TestParseCrashSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		check   func(t *testing.T, p Plan)
	}{
		{spec: "crash=0.05", check: func(t *testing.T, p Plan) {
			if p.Crash != 0.05 || p.CrashRestart {
				t.Fatalf("got %+v", p)
			}
			if !p.Enabled() {
				t.Fatal("crash rate should enable the plan")
			}
		}},
		{spec: "crash=0.02,crashrestart=on", check: func(t *testing.T, p Plan) {
			if p.Crash != 0.02 || !p.CrashRestart {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "crashrestart=off", check: func(t *testing.T, p Plan) {
			if p.CrashRestart || p.Enabled() {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "crashrestart=true", check: func(t *testing.T, p Plan) {
			if !p.CrashRestart {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "crash=0.01,drop=0.02,seed=9", check: func(t *testing.T, p Plan) {
			if p.Crash != 0.01 || p.Drop != 0.02 || p.Seed != 9 {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "crash=1.5", wantErr: true},
		{spec: "crash=-0.1", wantErr: true},
		{spec: "crashrestart=maybe", wantErr: true},
	}
	for _, c := range cases {
		p, err := ParsePlan(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePlan(%q): want error, got %+v", c.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.spec, err)
			continue
		}
		if c.check != nil {
			c.check(t, p)
		}
	}
}

func TestCrashSpecStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"crash=0.05,seed=3",
		"crash=0.02,crashrestart=on,seed=7",
		"drop=0.01,crash=0.1,crashrestart=on,seed=1",
	} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip mismatch for %q:\n  p=%+v\n  q=%+v", spec, p, q)
		}
	}
}

func TestCrashAtDeterminism(t *testing.T) {
	p, _ := ParsePlan("crash=0.2,seed=99")
	dies := func(p Plan, node int, ep int64) bool { d, _ := p.CrashAt(node, ep); return d }
	hits := 0
	for node := 0; node < 8; node++ {
		for ep := int64(1); ep <= 50; ep++ {
			a, b := dies(p, node, ep), dies(p, node, ep)
			if a != b {
				t.Fatalf("CrashAt(%d,%d) not deterministic", node, ep)
			}
			if a {
				hits++
			}
		}
	}
	// 400 draws at rate 0.2: expect ~80; loose 3-sigma-ish bounds.
	if hits < 40 || hits > 130 {
		t.Fatalf("crash verdict distribution off: %d/400 at rate 0.2", hits)
	}
	// A different seed must produce a different schedule.
	q := p
	q.Seed = 100
	same := true
	for node := 0; node < 8 && same; node++ {
		for ep := int64(1); ep <= 50; ep++ {
			if dies(p, node, ep) != dies(q, node, ep) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("crash schedule insensitive to seed")
	}
}

func TestParsePartitionSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		check   func(t *testing.T, p Plan)
	}{
		{spec: "partition=0.1", check: func(t *testing.T, p Plan) {
			if p.Partition != 0.1 || p.PartitionDur != 1 || p.PartitionCut != 1 {
				t.Fatalf("partition defaults not filled: %+v", p)
			}
			if !p.Enabled() {
				t.Fatal("partition rate should enable the plan")
			}
		}},
		{spec: "partition=0.2,partdur=3,partcut=2", check: func(t *testing.T, p Plan) {
			if p.Partition != 0.2 || p.PartitionDur != 3 || p.PartitionCut != 2 {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "partdur=5,partcut=2", check: func(t *testing.T, p Plan) {
			// Duration/cut without a rate are inert knobs, not an error:
			// the zero rate starts no partitions.
			if p.Partition != 0 || p.Enabled() {
				t.Fatalf("got %+v", p)
			}
			if _, active := p.partitionSpan(10); active {
				t.Fatal("rate-0 plan has an active partition")
			}
		}},
		{spec: "crashpoints=lock", check: func(t *testing.T, p Plan) {
			if p.CrashPoints != SafeLock {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "crashpoints=lock+flag", check: func(t *testing.T, p Plan) {
			if p.CrashPoints != SafeLock|SafeFlag {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "crashpoints=barrier", check: func(t *testing.T, p Plan) {
			// Barrier entry is always armed; the token parses to the zero
			// set so the plan round-trips to its zero value.
			if p.CrashPoints != 0 || p.Enabled() {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "crash=0.05,crashpoints=Barrier+LOCK", check: func(t *testing.T, p Plan) {
			if p.CrashPoints != SafeLock {
				t.Fatalf("case-insensitive parse: got %+v", p)
			}
		}},
		{spec: "partition=1.5", wantErr: true},
		{spec: "partition=-0.1", wantErr: true},
		{spec: "partition=0.1,partdur=-1", wantErr: true},
		{spec: "partition=0.1,partcut=-2", wantErr: true},
		{spec: "partdur=x", wantErr: true},
		{spec: "crashpoints=bogus", wantErr: true},
		{spec: "crashpoints=lock+bogus", wantErr: true},
	}
	for _, c := range cases {
		p, err := ParsePlan(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePlan(%q): want error, got %+v", c.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.spec, err)
			continue
		}
		if c.check != nil {
			c.check(t, p)
		}
	}
}

func TestPartitionSpecStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"partition=0.1,seed=3",
		"partition=0.2,partdur=3,partcut=2,seed=7",
		"crash=0.05,crashpoints=lock+flag,seed=1",
		"crash=0.03,crashpoints=flag,partition=0.1,partdur=2,seed=9",
		"crash=0.02,crashrestart=on,crashpoints=lock,drop=0.01,partition=0.05,partcut=2,partdur=1,seed=11",
	} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip mismatch for %q:\n  p=%+v\n  q=%+v", spec, p, q)
		}
	}
	// The zero plan round-trips through its rendered form without growing
	// spurious partition or safe-point keys.
	var zero Plan
	s := zero.String()
	for _, k := range []string{"partition", "partdur", "partcut", "crashpoints"} {
		if strings.Contains(s, k) {
			t.Fatalf("zero plan renders %q: %q", k, s)
		}
	}
}

func TestParseSafePoints(t *testing.T) {
	cases := []struct {
		in      string
		want    SafePoint
		wantErr bool
	}{
		{in: "", want: 0},
		{in: "barrier", want: 0},
		{in: "lock", want: SafeLock},
		{in: "flag", want: SafeFlag},
		{in: "lock+flag", want: SafeLock | SafeFlag},
		{in: "flag+lock", want: SafeLock | SafeFlag},
		{in: "barrier+lock+flag", want: SafeLock | SafeFlag},
		{in: " lock + flag ", want: SafeLock | SafeFlag},
		{in: "LOCK", want: SafeLock},
		{in: "mutex", wantErr: true},
		{in: "lock+", want: SafeLock}, // trailing empty token = barrier
	}
	for _, c := range cases {
		got, err := parseSafePoints(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseSafePoints(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSafePoints(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSafePoints(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// String of the zero set renders the always-armed backstop, and the
	// rendered form of every set re-parses to itself.
	if SafePoint(0).String() != "barrier" {
		t.Fatalf("zero set renders %q", SafePoint(0).String())
	}
	for _, s := range []SafePoint{0, SafeLock, SafeFlag, SafeLock | SafeFlag} {
		got, err := parseSafePoints(s.String())
		if err != nil || got != s {
			t.Fatalf("String/Parse round trip for %v: got %v, err %v", s, got, err)
		}
	}
}

func TestArmsPoint(t *testing.T) {
	var p Plan
	if !p.ArmsPoint(SafeBarrier) {
		t.Fatal("barrier entry must always be armed")
	}
	if p.ArmsPoint(SafeLock) || p.ArmsPoint(SafeFlag) {
		t.Fatal("zero plan arms lock/flag points")
	}
	p.CrashPoints = SafeLock
	if !p.ArmsPoint(SafeLock) || p.ArmsPoint(SafeFlag) {
		t.Fatalf("CrashPoints=lock arms wrong set: %+v", p)
	}
}

func TestPartitionSpanSchedule(t *testing.T) {
	p, err := ParsePlan("partition=0.3,partdur=2,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 200
	var starts, active int
	prevStart := int64(0)
	for e := int64(1); e <= horizon; e++ {
		s, on := p.partitionSpan(e)
		s2, on2 := p.partitionSpan(e)
		if s != s2 || on != on2 {
			t.Fatalf("partitionSpan(%d) not deterministic", e)
		}
		if !on {
			prevStart = 0
			continue
		}
		active++
		if e-s >= int64(p.PartitionDur) {
			t.Fatalf("episode %d claims start %d beyond partdur=%d", e, s, p.PartitionDur)
		}
		if prevStart != 0 && s != prevStart {
			// A new span may only begin once the previous has healed.
			if s < prevStart+int64(p.PartitionDur) {
				t.Fatalf("span starting %d overlaps span starting %d", s, prevStart)
			}
		}
		if s != prevStart {
			starts++
		}
		prevStart = s
	}
	if starts == 0 {
		t.Fatal("rate-0.3 plan started no partitions in 200 episodes")
	}
	if active < starts*1 || active > starts*p.PartitionDur {
		t.Fatalf("active episodes %d inconsistent with %d starts of duration %d", active, starts, p.PartitionDur)
	}
	// Seed sensitivity: a different seed yields a different schedule.
	q := p
	q.Seed = 43
	same := true
	for e := int64(1); e <= horizon; e++ {
		_, a := p.partitionSpan(e)
		_, b := q.partitionSpan(e)
		if a != b {
			same = false
			break
		}
	}
	if same {
		t.Fatal("partition schedule insensitive to seed")
	}
}

func TestPartitionCutAt(t *testing.T) {
	p, _ := ParsePlan("partition=0.5,partcut=2,seed=5")
	const nodes = 6
	cut := p.partitionCutAt(3, nodes)
	if len(cut) != 2 {
		t.Fatalf("cut size %d, want 2: %v", len(cut), cut)
	}
	if !sort.IntsAreSorted(cut) {
		t.Fatalf("cut not sorted: %v", cut)
	}
	if got := p.partitionCutAt(3, nodes); !slicesEqual(got, cut) {
		t.Fatalf("partitionCutAt not deterministic: %v vs %v", got, cut)
	}
	for _, n := range cut {
		if n < 0 || n >= nodes {
			t.Fatalf("cut node %d out of range: %v", n, cut)
		}
	}
	// The cut is clamped to leave a majority-side survivor.
	p.PartitionCut = 99
	if got := p.partitionCutAt(3, 4); len(got) != 3 {
		t.Fatalf("oversized cut not clamped to nodes-1: %v", got)
	}
	// A one-node cluster cannot be cut at all.
	if got := p.partitionCutAt(3, 1); got != nil {
		t.Fatalf("one-node cluster produced a cut: %v", got)
	}
	// Different start episodes move the cut around (hash-chosen base).
	p.PartitionCut = 1
	varies := false
	first := p.partitionCutAt(1, nodes)
	for s := int64(2); s <= 20; s++ {
		if !slicesEqual(p.partitionCutAt(s, nodes), first) {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("cut base insensitive to the start episode")
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpecsThatReplacedBuilderChains pins, as Plan literals recorded from the
// fluent builder's output on the last commit that had one (81f57a9), the spec
// strings that took the place of its chains in the lu, recovery and root
// options tests: the same plans, so the same fault schedules. The builder
// also set crashminepoch=1, which the spec grammar no longer has: episodes
// count from 1, so it suppressed nothing.
func TestSpecsThatReplacedBuilderChains(t *testing.T) {
	for _, c := range []struct {
		spec string
		want Plan
	}{
		{"crash=0.06,seed=20150615", Plan{Seed: 20150615, Crash: 0.06}},
		{"partition=0.15,partdur=2,seed=7", Plan{Seed: 7, Partition: 0.15, PartitionDur: 2, PartitionCut: 1}},
		{"crash=0.05,partition=0.12,partdur=1,seed=11",
			Plan{Seed: 11, Crash: 0.05, Partition: 0.12, PartitionDur: 1, PartitionCut: 1}},
		{"crash=0.06,crashrestart=on,seed=20150615", Plan{Seed: 20150615, Crash: 0.06, CrashRestart: true}},
		{"drop=0.005,crash=0.05,crashrestart=on,crashpoints=lock+flag,partition=0.1,partdur=1,seed=13",
			Plan{Seed: 13, Drop: 0.005, Crash: 0.05, CrashRestart: true, CrashPoints: SafeLock | SafeFlag,
				Partition: 0.1, PartitionDur: 1, PartitionCut: 1}},
		{"partition=1,partdur=1,seed=1", Plan{Seed: 1, Partition: 1, PartitionDur: 1, PartitionCut: 1}},
		{"crash=0.05,seed=3", Plan{Seed: 3, Crash: 0.05}},
		{"drop=0.01,crash=0.06,crashrestart=on,partition=0.15,partdur=2,seed=5",
			Plan{Seed: 5, Drop: 0.01, Crash: 0.06, CrashRestart: true, Partition: 0.15, PartitionDur: 2, PartitionCut: 1}},
		{"crash=0.03,partition=0.1,partdur=2,partcut=2,seed=42", Plan{Seed: 42, Crash: 0.03, Partition: 0.1, PartitionDur: 2, PartitionCut: 2}},
	} {
		got, err := ParsePlan(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n  parsed   %+v\n  recorded %+v", c.spec, got, c.want)
		}
	}
}

func TestParseOneWayCutSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		check   func(t *testing.T, p Plan)
	}{
		{spec: "partition=0.2,partcut=1>4", check: func(t *testing.T, p Plan) {
			if !p.PartitionOneWay || p.PartitionFrom != 1 || p.PartitionTo != 4 {
				t.Fatalf("one-way cut not parsed: %+v", p)
			}
			if p.PartitionCut != 0 {
				t.Fatalf("one-way cut kept a symmetric width: %+v", p)
			}
			if !p.Enabled() {
				t.Fatal("one-way partition should enable the plan")
			}
		}},
		{spec: "partcut=2>0", check: func(t *testing.T, p Plan) {
			// A one-way cut without a rate is an inert knob, like partdur.
			if !p.PartitionOneWay || p.Enabled() {
				t.Fatalf("got %+v", p)
			}
		}},
		{spec: "partition=0.1,partcut=3", check: func(t *testing.T, p Plan) {
			if p.PartitionOneWay {
				t.Fatalf("symmetric cut parsed as one-way: %+v", p)
			}
		}},
		{spec: "partcut=1>1", wantErr: true},  // a node cannot be severed from itself
		{spec: "partcut=-1>2", wantErr: true}, // negative node id
		{spec: "partcut=1>-2", wantErr: true},
		{spec: "partcut=a>b", wantErr: true}, // non-numeric endpoints
		{spec: "partcut=1>", wantErr: true},
		{spec: "partcut=>2", wantErr: true},
	}
	for _, c := range cases {
		p, err := ParsePlan(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePlan(%q): want error, got %+v", c.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.spec, err)
			continue
		}
		if c.check != nil {
			c.check(t, p)
		}
	}
}

func TestOneWayCutSpecStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"partition=0.2,partcut=1>4,seed=7",
		"partition=0.1,partdur=3,partcut=0>5,seed=2",
		"crash=0.04,crashrestart=on,partition=0.15,partdur=2,partcut=2>0,crashpoints=lock+flag,seed=11",
	} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if !strings.Contains(p.String(), ">") {
			t.Fatalf("rendered plan lost the one-way syntax: %q", p.String())
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip mismatch for %q:\n  p=%+v\n  q=%+v", spec, p, q)
		}
	}
}

func TestPartitionCutAtOneWay(t *testing.T) {
	p, err := ParsePlan("partition=0.5,partdur=2,partcut=1>4,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	ep := int64(1)
	for ; ep < 64; ep++ {
		if _, on := p.partitionSpan(ep); on {
			break
		}
	}
	// The parked set of a one-way cut is the source node alone — the only
	// node whose released writes could be lost across the cut.
	if got := p.CutAt(ep, 6); !reflect.DeepEqual(got, Cut{Iso: []int{1}, OneWay: true, From: 1, To: 4}) {
		t.Fatalf("CutAt(%d, 6) = %+v, want 1>4 parking [1]", ep, got)
	}
	// Endpoints outside the cluster leave the fabric whole rather than
	// parking a phantom node.
	if got := p.CutAt(ep, 3); got.Iso != nil {
		t.Fatalf("CutAt on a 3-node cluster = %+v, want the whole fabric", got)
	}
}

// Scripted entries parse into the plan's lists, render back in the order they
// are listed — overlapping cuts in either order, since the first listed wins —
// and parse back to the same plan.
func TestScriptedSpecRoundTrip(t *testing.T) {
	p, err := ParsePlan("restartat=2@4,crashat=1@2+4@6,cutat=1.5@5:2+3>0@8:1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 3,
		Crashes: []ScriptedCrash{{Node: 1, Episode: 2}, {Node: 2, Episode: 4, Restart: true}, {Node: 4, Episode: 6}},
		Cuts:    []ScriptedCut{{Start: 5, Dur: 2, Nodes: []int{1, 5}}, {Start: 8, Dur: 1, OneWay: true, From: 3, To: 0}}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v\nwant   %+v", p, want)
	}
	if got := p.String(); got != "crashat=1@2+4@6,cutat=1.5@5:2+3>0@8:1,restartat=2@4,seed=3" {
		t.Fatalf("rendered %q", got)
	}
	for _, spec := range []string{
		p.String(),
		"cutat=2@3:3+0>1@4:2,crash=0.1,partition=0.2,seed=9",
		"cutat=0>1@4:2+2@3:3,crash=0.1,partition=0.2,seed=9",
		"cutat=4.0.2@1:1,restartat=0@1+9@2,drop=0.01",
	} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip mismatch for %q:\n  p=%+v\n  q=%+v", spec, p, q)
		}
		if !p.Armed() || p.Enabled() != (p.Crash > 0 || p.Partition > 0 || p.Drop > 0) {
			t.Fatalf("%q: armed %v, enabled %v", spec, p.Armed(), p.Enabled())
		}
	}
	if p, _ := ParsePlan("crashpoints=lock,seed=1"); p.Crashes != nil || p.Cuts != nil || p.Armed() {
		t.Fatalf("a plan without scripts has lists %v %v, armed %v", p.Crashes, p.Cuts, p.Armed())
	}
}

func TestScriptedSpecRejected(t *testing.T) {
	for _, spec := range []string{
		"crashat=1@2,restartat=1@5", // two crashes of one node
		"crashat=1@2+1@3",
		"crashat=-1@2", "restartat=1@-2", "cutat=-1@2:1", "cutat=1@-2:1", "cutat=-1>0@2:1",
		"cutat=1@2:0",   // shorter than an episode
		"cutat=3>3@2:1", // a node severed from itself
		"crashat=1", "crashat=1@x", "crashat=", "cutat=1@2", "cutat=1:2@3", "cutat=@2:1", "cutat=1.@2:1", "cutat=1>@2:1",
	} {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) = %+v, want an error", spec, p)
		}
	}
}

// A scripted node dies as its entry says whatever the draws say; an active
// scripted cut wins over the drawn schedule, the first listed over a later
// overlapping one, and nodes outside the cluster are left out of it.
func TestScriptedVerdicts(t *testing.T) {
	p, err := ParsePlan("crash=1,crashrestart=on,partition=1,partdur=1,restartat=2@3,crashat=5@1,cutat=3.1@2:2+4>0@3:2+9@7:1+8>0@8:1,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		node          int
		ep            int64
		dies, restart bool
	}{{2, 2, false, true}, {2, 3, true, true}, {5, 1, true, false}, {5, 2, false, false}, {0, 2, true, true}} {
		if dies, restart := p.CrashAt(c.node, c.ep); dies != c.dies || (dies && restart != c.restart) {
			t.Errorf("CrashAt(%d, %d) = %v, %v; want %v, %v", c.node, c.ep, dies, restart, c.dies, c.restart)
		}
	}
	drawn := func(ep int64) Cut { // the drawn cut of episode ep on five nodes
		start, _ := p.partitionSpan(ep)
		return Cut{Iso: p.partitionCutAt(start, 5)}
	}
	for _, c := range []struct {
		ep   int64
		want Cut
	}{
		{2, Cut{Iso: []int{1, 3}}},
		{3, Cut{Iso: []int{1, 3}}}, // overlaps 4>0: the first listed wins
		{4, Cut{Iso: []int{4}, OneWay: true, From: 4, To: 0}},
		{1, drawn(1)},
		{7, drawn(7)}, // node 9 is outside: the draws decide
		{8, drawn(8)}, // so is one endpoint of 8>0
	} {
		if got := p.CutAt(c.ep, 5); !reflect.DeepEqual(got, c.want) {
			t.Errorf("CutAt(%d, 5) = %+v, want %+v", c.ep, got, c.want)
		}
	}
	if got := p.CutAt(7, 10); !reflect.DeepEqual(got, Cut{Iso: []int{9}}) {
		t.Errorf("CutAt(7, 10) = %+v, want node 9 isolated", got)
	}
}
