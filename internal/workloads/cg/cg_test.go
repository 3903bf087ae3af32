package cg

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"

	"argo/internal/core"
	"argo/internal/racetag"
	"argo/internal/workloads/wload"
)

func testParams() Params { return Params{N: 1024, PerRow: 8, Iters: 4} }

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}

func TestMatrixIsSymmetricAndDominant(t *testing.T) {
	p := Params{N: 200, PerRow: 6}
	s := BuildMatrix(p)
	get := func(i, j int) float64 {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			if int(s.ColIdx[k]) == j {
				return s.Val[k]
			}
		}
		return 0
	}
	for i := 0; i < p.N; i += 7 {
		var off float64
		var diag float64
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			j := int(s.ColIdx[k])
			if j == i {
				diag = s.Val[k]
			} else {
				off += math.Abs(s.Val[k])
				// Symmetry spot check (duplicate entries sum equally on
				// both sides by construction).
				_ = get(j, i)
			}
		}
		if diag < off {
			t.Fatalf("row %d not diagonally dominant: %v < %v", i, diag, off)
		}
	}
}

func TestCGConverges(t *testing.T) {
	p := Params{N: 512, PerRow: 6, Iters: 25}
	s := BuildMatrix(p)
	x := Serial(p)
	b := rhs(p.N)
	// Residual of the returned solution must be much smaller than |b|.
	q := make([]float64, p.N)
	s.spmvRows(q, x, 0, p.N)
	var rn, bn float64
	for i := 0; i < p.N; i++ {
		d := q[i] - b[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	if math.Sqrt(rn/bn) > 1e-6 {
		t.Fatalf("CG did not converge: rel residual %v", math.Sqrt(rn/bn))
	}
}

func TestVariantsAgree(t *testing.T) {
	p := testParams()
	want := wload.Checksum(Serial(p))
	// Different partitions group the reduction differently: allow a tiny
	// floating-point tolerance.
	if r := RunLocal(p, 4); !approx(r.Check, want, 1e-6) {
		t.Fatalf("local check %v != serial %v", r.Check, want)
	}
	if r := RunArgo(wload.ArgoConfig(2, 16<<20), p, 2); !approx(r.Check, want, 1e-6) {
		t.Fatalf("argo check %v != serial %v", r.Check, want)
	}
	if r := RunUPC(2, 2, p); !approx(r.Check, want, 1e-6) {
		t.Fatalf("upc check %v != serial %v", r.Check, want)
	}
}

func TestLocalScales(t *testing.T) {
	p := Params{N: 4096, PerRow: 16, Iters: 4}
	serial := RunSerial(p)
	par := RunLocal(p, 8)
	if par.Time >= serial.Time {
		t.Fatalf("8 threads (%d) not faster than serial (%d)", par.Time, serial.Time)
	}
}

func TestArgoSharedVectorMigrates(t *testing.T) {
	p := testParams()
	r := RunArgo(wload.ArgoConfig(2, 16<<20), p, 2)
	if r.Stats.SelfInvalidations == 0 {
		t.Fatal("direction vector never migrated")
	}
	if r.Stats.Writebacks == 0 {
		t.Fatal("no downgrades recorded")
	}
}

// buildMatrixOracle is the builder BuildMatrix replaced: per-row appends,
// then one growing append per CSR array. Kept as the reference the two-pass
// builder must reproduce bit for bit.
func buildMatrixOracle(p Params) *Sparse {
	n := p.N
	type ent struct {
		j int32
		v float64
	}
	rows := make([][]ent, n)
	seed := uint64(88172645463325252)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	per := p.PerRow / 2
	for i := 0; i < n; i++ {
		for k := 0; k < per; k++ {
			j := int(next() % uint64(n))
			if j == i {
				continue
			}
			v := float64(next()%2000)/1000.0 - 1.0
			rows[i] = append(rows[i], ent{int32(j), v})
			rows[j] = append(rows[j], ent{int32(i), v})
		}
	}
	s := &Sparse{N: n}
	s.RowPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		diag := 1.0
		for _, e := range rows[i] {
			diag += math.Abs(e.v)
		}
		s.ColIdx = append(s.ColIdx, int32(i))
		s.Val = append(s.Val, diag)
		for _, e := range rows[i] {
			s.ColIdx = append(s.ColIdx, e.j)
			s.Val = append(s.Val, e.v)
		}
		s.RowPtr[i+1] = int32(len(s.Val))
	}
	return s
}

func TestBuildMatrixMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 7, 2048, 65536} {
		for _, perRow := range []int{2, 8, 32} {
			p := Params{N: n, PerRow: perRow}
			got, want := BuildMatrix(p), buildMatrixOracle(p)
			if got.N != want.N || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
				t.Fatalf("N=%d PerRow=%d: CSR structure differs from the oracle", n, perRow)
			}
			if len(got.Val) != len(want.Val) {
				t.Fatalf("N=%d PerRow=%d: %d values, want %d", n, perRow, len(got.Val), len(want.Val))
			}
			for k := range want.Val {
				if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("N=%d PerRow=%d: Val[%d] = %v, want %v", n, perRow, k, got.Val[k], want.Val[k])
				}
			}
		}
	}
}

// TestRunArgoSizesItsOwnMemory: RunArgo grows a too-small MemoryBytes to what
// it allocates — four vectors and the partial sums, not two vectors.
func TestRunArgoSizesItsOwnMemory(t *testing.T) {
	p := Params{N: 131072, PerRow: 4, Iters: 1}
	want := wload.Checksum(Serial(p))
	if r := RunArgo(wload.ArgoConfig(2, 1<<20), p, 1); !approx(r.Check, want, 1e-6) {
		t.Fatalf("argo check %v != serial %v", r.Check, want)
	}
}

// spmvScalar is the sparse matvec spmvGather replaced: one GetF64 per nonzero.
// Kept as the reference the fused two-row product must reproduce bit for bit.
func (s *Sparse) spmvScalar(th *core.Thread, gd core.F64Slice, q []float64, lo, hi int) int {
	flops := 0
	for i := lo; i < hi; i++ {
		var acc float64
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			acc += s.Val[k] * th.GetF64(gd, int(s.ColIdx[k]))
		}
		q[i-lo] = acc
		flops += int(s.RowPtr[i+1] - s.RowPtr[i])
	}
	return flops
}

// spmvRowsOneByOne is the native matvec spmvRows replaced: one row at a time,
// one add chain. Kept as the reference the two-row loop must reproduce bit for
// bit.
func (s *Sparse) spmvRowsOneByOne(q, p []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var acc float64
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			acc += s.Val[k] * p[s.ColIdx[k]]
		}
		q[i] = acc
	}
}

// TestSpMVRowsBitIdentical: the two-row spmvRows sets every row to the bits of
// the one-row loop — over the ledger's matrix (benchmark/workloads.go,
// prepareCG) with a vector whose magnitudes span sixty binades, so any other
// order of the adds shows, on even and odd row ranges; and over a matrix
// with empty and unequal rows. It writes nothing outside q[lo:hi] and returns
// the range's nonzero count.
func TestSpMVRowsBitIdentical(t *testing.T) {
	ragged := &Sparse{N: 6, RowPtr: []int32{0, 3, 3, 4, 9, 9, 11},
		ColIdx: []int32{0, 5, 2, 4, 1, 1, 3, 0, 5, 2, 2},
		Val:    []float64{1.5, -2, 1e-9, 3, 7, -1, 0.25, 1e12, 5, -3, 2}}
	for _, m := range []*Sparse{BuildMatrix(Params{N: 65536, PerRow: 32}), ragged} {
		p := make([]float64, m.N)
		seed := uint64(1)
		for i := range p {
			seed = seed*6364136223846793005 + 1442695040888963407
			p[i] = math.Ldexp(float64(seed>>11)/(1<<53)-0.5, int(seed%61)-30)
		}
		for _, r := range [][2]int{{0, m.N}, {1, m.N}, {0, m.N - 1}, {3, 4}, {2, 2}} {
			lo, hi := r[0], r[1]
			got, want := make([]float64, m.N), make([]float64, m.N)
			for i := range got {
				got[i], want[i] = -0.5, -0.5
			}
			flops := m.spmvRows(got, p, lo, hi)
			m.spmvRowsOneByOne(want, p, lo, hi)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d rows [%d,%d): row %d is %x, the one-row loop's %x", m.N, lo, hi, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			if want := int(m.RowPtr[hi] - m.RowPtr[lo]); flops != want {
				t.Fatalf("n=%d rows [%d,%d): %d flops, want %d", m.N, lo, hi, flops, want)
			}
		}
	}
}

// Operands whose product needs more than 53 bits: x·y = 1 + 2⁻²⁹ + 2⁻⁶⁰, so
// x*y + z is nonzero only on a build that contracts it into one rounding
// (arm64, GOAMD64=v3; see lu's fusesMulAdd). Variables, so the compiler cannot
// fold the arithmetic exactly.
var fuseX, fuseY, fuseZ = 1 + 0x1p-30, 1 + 0x1p-30, -(1 + 0x1p-29)

// TestSpMVGatherBitIdentical: RunArgo over SpMVF64 is RunArgo over GetF64 —
// the same checksum bits, and on one thread (where nothing depends on host
// arrival order) the same counters and the same makespan to the nanosecond.
// The ledger's cg_gather run must carry exactly the checksum bits
// benchmark/fingerprints.json pins.
func TestSpMVGatherBitIdentical(t *testing.T) {
	p := Params{N: 2048, PerRow: 8, Iters: 3}
	for _, g := range []struct{ nodes, tpn int }{{1, 1}, {2, 2}} {
		cfg := wload.ArgoConfig(g.nodes, 16<<20)
		got, want := RunArgo(cfg, p, g.tpn), runArgo(cfg, p, g.tpn, (*Sparse).spmvScalar, wload.ChecksumOf)
		if math.Float64bits(got.Check) != math.Float64bits(want.Check) {
			t.Fatalf("%dx%d: fused check %x, scalar %x", g.nodes, g.tpn, math.Float64bits(got.Check), math.Float64bits(want.Check))
		}
		if g.nodes*g.tpn == 1 && (got.Time != want.Time || got.Stats != want.Stats) {
			t.Fatalf("1x1: fused makespan %d stats %+v\nscalar makespan %d stats %+v", got.Time, got.Stats, want.Time, want.Stats)
		}
	}

	if testing.Short() || racetag.Enabled || fuseX*fuseY+fuseZ != 0 {
		t.Log("ledger check skipped: -short, -race (50x the time for the same bits), or this build fuses multiply-add and the ledger pins the bits of an unfused (default amd64) build")
		return
	}
	raw, err := os.ReadFile("../../../benchmark/fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins struct {
		Fixed map[string]map[string]string `json:"fixed"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	want := pins.Fixed["cg_gather"]["checksum_bits"]
	if want == "" {
		t.Fatal("fingerprints.json pins no cg_gather checksum_bits")
	}
	// benchmark/workloads.go, prepareCG: 4 nodes of 4 threads, 64 MB.
	r := RunArgo(wload.ArgoConfig(4, 64<<20), Params{N: 65536, PerRow: 32, Iters: 32}, 4)
	if got := strconv.FormatUint(math.Float64bits(r.Check), 16); got != want {
		t.Fatalf("cg_gather checksum bits %s, ledger pins %s", got, want)
	}
}

// inputDigest is an FNV-1a of every byte of the shared inputs of p.
func inputDigest(p Params) uint64 {
	s, h := BuildMatrix(p), fnv.New64a()
	for _, arr := range []any{s.RowPtr, s.ColIdx, s.Val, rhs(p.N)} {
		if err := binary.Write(h, binary.LittleEndian, arr); err != nil {
			panic(err)
		}
	}
	return h.Sum64()
}

// TestRunnersOnlyReadSharedInputs: the matrix and the right-hand side are
// built once and handed to every runner family, so none of them may write a
// byte of either — and what they share is still the oracle's matrix.
func TestRunnersOnlyReadSharedInputs(t *testing.T) {
	p := testParams()
	sm, b, want := BuildMatrix(p), rhs(p.N), inputDigest(p)
	for _, family := range []struct {
		name string
		run  func()
	}{
		{"Serial", func() { Serial(p) }},
		{"RunLocal", func() { RunLocal(p, 4) }},
		{"RunArgo", func() { RunArgo(wload.ArgoConfig(2, 16<<20), p, 2) }},
		{"RunUPC", func() { RunUPC(2, 2, p) }},
	} {
		family.run()
		if BuildMatrix(p) != sm || &rhs(p.N)[0] != &b[0] {
			t.Fatalf("%s: the inputs were rebuilt for parameters that did not change", family.name)
		}
		if got := inputDigest(p); got != want {
			t.Fatalf("%s wrote to the shared inputs: digest %016x, was %016x", family.name, got, want)
		}
	}
	q := p
	q.Iters++ // the matrix does not depend on the iteration count
	if BuildMatrix(q) != sm {
		t.Fatal("a different iteration count rebuilt the matrix")
	}
	ref := buildMatrixOracle(p)
	if !slices.Equal(sm.RowPtr, ref.RowPtr) || !slices.Equal(sm.ColIdx, ref.ColIdx) || !slices.Equal(sm.Val, ref.Val) {
		t.Fatal("the shared matrix is not the oracle's")
	}
}

// TestRunnerFamiliesShareInputsConcurrently runs three runner families at once
// on one memoised input; under -race (CI runs this package with it) a write to
// the shared arrays by any of them is a reported race with the others' reads.
func TestRunnerFamiliesShareInputsConcurrently(t *testing.T) {
	p := testParams()
	want := wload.Checksum(Serial(p))
	var wg sync.WaitGroup
	for _, run := range []func() wload.Result{
		func() wload.Result { return RunLocal(p, 2) },
		func() wload.Result { return RunArgo(wload.ArgoConfig(2, 16<<20), p, 2) },
		func() wload.Result { return RunUPC(2, 2, p) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := run(); !approx(r.Check, want, 1e-6) {
				t.Errorf("%s check %v != serial %v", r.System, r.Check, want)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkBuildMatrix times the generator itself (BuildMatrix is a memo hit).
func BenchmarkBuildMatrix(b *testing.B) {
	p := Params{N: 65536, PerRow: 32}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildMatrix(p)
	}
}

// TestInPlaceAnswerIsTheDumpFold: RunArgo's checksum of the solution is
// read in place from the finished cluster and equals the fold over DumpF64's
// copy bit for bit.
func TestInPlaceAnswerIsTheDumpFold(t *testing.T) {
	folds := 0
	checksum := func(c *core.Cluster, s core.F64Slice) float64 {
		folds++
		in, dump := wload.ChecksumOf(c, s), wload.Checksum(c.DumpF64(s))
		if math.Float64bits(in) != math.Float64bits(dump) {
			t.Errorf("checksum in place %v, over the dump %v", in, dump)
		}
		return in
	}
	runArgo(wload.ArgoConfig(2, 16<<20), testParams(), 2, (*Sparse).spmvGather, checksum)
	if folds != 1 {
		t.Fatalf("%d answers folded, want 1", folds)
	}
}

// TestUPCRepeats: the UPC port's answer does not follow the host scheduler —
// repeated runs give one checksum bit pattern (its reductions add in rank
// order), as CI checks at -cpu 2,4.
func TestUPCRepeats(t *testing.T) {
	p := Params{N: 512, PerRow: 12, Iters: 4}
	first := math.Float64bits(RunUPC(4, 16, p).Check)
	for i := 0; i < 10; i++ {
		if got := math.Float64bits(RunUPC(4, 16, p).Check); got != first {
			t.Fatalf("run %d: checksum bits %#x, first run %#x", i+1, got, first)
		}
	}
}
