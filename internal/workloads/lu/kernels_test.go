package lu

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"argo/internal/simd"
)

// The textbook triple loops the block kernels replaced. They define the
// per-element sequence of rounded operations; the kernels must match them
// bit for bit.

func refFactorDiag(a []float64, b int) {
	for k := 0; k < b; k++ {
		for i := k + 1; i < b; i++ {
			a[i*b+k] /= a[k*b+k]
			lik := a[i*b+k]
			for j := k + 1; j < b; j++ {
				a[i*b+j] -= lik * a[k*b+j]
			}
		}
	}
}

func refSolveRow(diag, blk []float64, b int) {
	for k := 0; k < b; k++ {
		for i := k + 1; i < b; i++ {
			lik := diag[i*b+k]
			for j := 0; j < b; j++ {
				blk[i*b+j] -= lik * blk[k*b+j]
			}
		}
	}
}

func refSolveCol(diag, blk []float64, b int) {
	for k := 0; k < b; k++ {
		ukk := diag[k*b+k]
		for i := 0; i < b; i++ {
			blk[i*b+k] /= ukk
		}
		for j := k + 1; j < b; j++ {
			ukj := diag[k*b+j]
			for i := 0; i < b; i++ {
				blk[i*b+j] -= blk[i*b+k] * ukj
			}
		}
	}
}

func refMulSub(c, a, bb []float64, b int) {
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			aik := a[i*b+k]
			for j := 0; j < b; j++ {
				c[i*b+j] -= aik * bb[k*b+j]
			}
		}
	}
}

// kernelBlock returns a seeded b×b block of mixed signs and magnitudes
// (1e-6 … 1e6, so products round and cancel).
func kernelBlock(rng *rand.Rand, b int) []float64 {
	blk := make([]float64, b*b)
	for i := range blk {
		blk[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(13)-6))
	}
	return blk
}

// diagBlock is kernelBlock made diagonally dominant, as LU's diagonal blocks
// are: the divisions stay finite.
func diagBlock(rng *rand.Rand, b int) []float64 {
	blk := kernelBlock(rng, b)
	for i := 0; i < b; i++ {
		blk[i*b+i] += math.Copysign(1e7, blk[i*b+i])
	}
	return blk
}

func sameBits(t *testing.T, kernel string, b int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s b=%d: element (%d,%d) = %x, reference %x", kernel, b, i/b, i%b,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestKernelsBitIdentical holds every block kernel to its triple-loop
// reference, on block sizes that cover the empty, partial and full k-by-4
// groups of mulSubGo and one to four 16-column strips of the SIMD kernel
// (b = 16, 32, 48, 64). mulSub is checked as dispatched and as its Go loop.
func TestKernelsBitIdentical(t *testing.T) {
	clone := func(x []float64) []float64 { return append([]float64(nil), x...) }
	for _, b := range []int{1, 2, 3, 4, 5, 8, 16, 31, 32, 33, 48, 64} {
		rng := rand.New(rand.NewSource(int64(b) * 7919))
		for rep := 0; rep < 3; rep++ {
			diag, x, y, z := diagBlock(rng, b), kernelBlock(rng, b), kernelBlock(rng, b), kernelBlock(rng, b)

			got, want := clone(diag), clone(diag)
			factorDiag(got, b)
			refFactorDiag(want, b)
			sameBits(t, "factorDiag", b, got, want)
			factored := want

			got, want = clone(x), clone(x)
			solveRow(factored, got, b)
			refSolveRow(factored, want, b)
			sameBits(t, "solveRow", b, got, want)

			got, want = clone(x), clone(x)
			solveCol(factored, got, b)
			refSolveCol(factored, want, b)
			sameBits(t, "solveCol", b, got, want)

			got, want = clone(x), clone(x)
			mulSub(got, y, z, b)
			refMulSub(want, y, z, b)
			sameBits(t, "mulSub", b, got, want)

			got = clone(x)
			mulSubGo(got, y, z, b)
			sameBits(t, "mulSubGo", b, got, want)
		}
	}
}

// Operands whose product needs more than 53 bits: x·y = 1 + 2⁻²⁹ + 2⁻⁶⁰.
// Variables, so the compiler cannot fold the arithmetic exactly.
var fuseX, fuseY, fuseZ = 1 + 0x1p-30, 1 + 0x1p-30, -(1 + 0x1p-29)

// fusesMulAdd reports whether this build contracts x*y + z into one rounding
// (arm64, ppc64, s390x, riscv64, GOAMD64=v3): the product's 2⁻⁶⁰ survives
// only then.
func fusesMulAdd() bool { return fuseX*fuseY+fuseZ != 0 }

// TestSerialChecksumIsTheLedgers ties the kernels to the perf ledger: the
// serial factorisation of lu_bulk's input must carry exactly the checksum
// bits benchmark/fingerprints.json pins for that workload.
func TestSerialChecksumIsTheLedgers(t *testing.T) {
	if testing.Short() {
		t.Skip("factors a 768×768 matrix")
	}
	if fusesMulAdd() {
		t.Skip("this build fuses multiply-add; the ledger pins the bits of an unfused (default amd64) build")
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
	want := pins.Fixed["lu_bulk"]["checksum_bits"]
	if want == "" {
		t.Fatal("fingerprints.json pins no lu_bulk checksum_bits")
	}
	got := strconv.FormatUint(math.Float64bits(RunSerial(Params{N: 768, Block: 32}).Check), 16)
	if got != want {
		t.Fatalf("serial checksum bits %s, ledger pins %s", got, want)
	}
}

// BenchmarkKernels reports ns per 32×32 block for the four kernels, mulSub as
// its Go loop and as the SIMD kernel side by side (simd is skipped where the
// kernel is not selected). The operands are restored before every call so
// values stay finite; the copy is a few percent of mulSub/go and is the same
// at every commit.
func BenchmarkKernels(b *testing.B) {
	const bs = 32
	rng := rand.New(rand.NewSource(1))
	diag, x, y, z := diagBlock(rng, bs), kernelBlock(rng, bs), kernelBlock(rng, bs), kernelBlock(rng, bs)
	factored := append([]float64(nil), diag...)
	factorDiag(factored, bs)
	work := make([]float64, bs*bs)
	for _, k := range []struct {
		name string
		src  []float64
		run  func()
	}{
		{"factorDiag", diag, func() { factorDiag(work, bs) }},
		{"solveRow", x, func() { solveRow(factored, work, bs) }},
		{"solveCol", x, func() { solveCol(factored, work, bs) }},
		{"mulSub/go", x, func() { mulSubGo(work, y, z, bs) }},
		{"mulSub/simd", x, func() { simd.MulSub(work, y, z, bs) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			if k.name == "mulSub/simd" && !simd.MulSub(work, y, z, bs) {
				b.Skip("the SIMD block kernel is not selected in this build or on this host")
			}
			for i := 0; i < b.N; i++ {
				copy(work, k.src)
				k.run()
			}
		})
	}
}
