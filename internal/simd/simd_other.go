//go:build !amd64

package simd

// No kernel exists for this architecture: Diff and MulSub always decline.
const useDiff, useMulSub = false, false

func diffAVX2(home, data, twin *byte, n int) int { panic("simd: no AVX2 kernel on this architecture") }

func mulSubAVX2(c, a, bb *float64, b int) { panic("simd: no AVX2 kernel on this architecture") }
