package simd

import "argo/internal/racetag"

// Selected once by init and read-only after it.
var useDiff, useMulSub bool

// A -race build keeps the Go loops: the detector cannot see what assembly
// reads and writes, and the race tests rely on seeing the diff's accesses.
// A build that fuses multiply-add keeps the Go block update (fusesMulAdd).
func init() {
	useDiff = hasAVX2() && !racetag.Enabled
	useMulSub = useDiff && !fusesMulAdd()
}

// hasAVX2 reports whether the CPU has AVX2 and POPCNT and the OS saves the
// YMM registers across context switches (OSXSAVE, and XCR0's SSE and AVX
// state bits).
func hasAVX2() bool {
	const (
		popcnt  = 1 << 23 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.(7,0):EBX
		ymm     = 0b110  // XCR0: XMM and YMM state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymm != ymm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0; call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// diffAVX2 is Diff's kernel: n is a positive multiple of 32, data and twin
// hold n bytes, and home holds n bytes or is nil (size only).
//
//go:noescape
func diffAVX2(home, data, twin *byte, n int) int

// mulSubAVX2 is MulSub's kernel: b is a positive multiple of 16 and every
// operand holds b·b elements.
//
//go:noescape
func mulSubAVX2(c, a, bb *float64, b int)
