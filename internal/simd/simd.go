// Package simd holds the two hand-vectorised leaf kernels of the simulator:
// the self-downgrade diff of a page against its twin (behind mem's diff scan)
// and LU's block update c -= a·bb. Each runs on amd64 hosts with AVX2, chosen
// once at start-up; everywhere else, and for operands a kernel does not cover,
// the entry points report false and the caller runs its Go loop. Both kernels
// compute exactly what the Go loops compute — the same home bytes and wire
// size, the same rounded float operations in the same order — so no result
// depends on which one ran (DESIGN §29).
//
// The bounds are checked here, in Go, before any assembly call.
package simd

// Diff sizes the diff of data against twin and, when home is non-nil, applies
// its changed bytes to home, like mem's diff scan. It covers lengths that are
// a multiple of 32 with twin (and a non-nil home) at least as long as data;
// it returns ok == false, having touched nothing, when the kernel is not
// selected or the operands are outside that.
func Diff(home, data, twin []byte) (tx int, ok bool) {
	n := len(data)
	if !useDiff || n%32 != 0 || len(twin) < n || home != nil && len(home) < n {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	var h *byte
	if home != nil {
		h = &home[0]
	}
	return diffAVX2(h, &data[0], &twin[0], n), true
}

// MulSub computes c -= a·bb for row-major b×b blocks: element (i,j) takes
// a(i,k)·bb(k,j) for k = 0..b-1 in ascending order, one multiply and one
// subtract each, never fused. It covers b a positive multiple of 16 with every
// operand at least b·b long, and returns false, having touched nothing, when
// the kernel is not selected or the operands are outside that.
func MulSub(c, a, bb []float64, b int) bool {
	if !useMulSub || b <= 0 || b%16 != 0 || len(c) < b*b || len(a) < b*b || len(bb) < b*b {
		return false
	}
	mulSubAVX2(&c[0], &a[0], &bb[0], b)
	return true
}

// A build that contracts x*y + z into one rounding keeps the Go block update:
// the kernel never fuses, so it would round differently from the Go loop it
// stands in for. Go contracts on arm64, ppc64, s390x and riscv64; go1.24 does
// not on amd64, even at GOAMD64=v3, and this check holds whatever a later
// compiler does. The operands make x·y = 1 + 2⁻²⁹ + 2⁻⁶⁰, whose 2⁻⁶⁰ survives
// only a fused multiply-add; they are variables, so the compiler cannot fold
// the arithmetic exactly.
var fuseX, fuseY, fuseZ = 1 + 0x1p-30, 1 + 0x1p-30, -(1 + 0x1p-29)

func fusesMulAdd() bool { return fuseX*fuseY+fuseZ != 0 }
