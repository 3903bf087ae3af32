package mem

import (
	"encoding/binary"
	"math"
	"testing"

	"argo/internal/simd"
)

// diffPatterns are the page/twin pairs BenchmarkDiff scans: the two ledger
// drivers (benchmark/layers.go), the one-word page a scalar store leaves
// behind, and the two shapes LU's float updates produce — every element of
// the page perturbed in its low mantissa bytes, and two 256-byte rows of it.
func diffPatterns() map[string][2][]byte {
	const ps = 4096
	zero := make([]byte, ps)
	sparse := make([]byte, ps)
	dense := make([]byte, ps)
	for i := range dense {
		dense[i] = byte(i + 1)
		if i%256 < 32 {
			sparse[i] = byte(i + 1)
		}
	}
	oneword := make([]byte, ps)
	binary.LittleEndian.PutUint64(oneword[2048:], 0x0123456789abcdef)

	floatTwin := make([]byte, ps)
	floats := make([]byte, ps)
	floatrows := make([]byte, ps)
	for i := 0; i < ps/8; i++ {
		v := 1.0 + float64(i)/3
		binary.LittleEndian.PutUint64(floatTwin[i*8:], math.Float64bits(v))
		w := math.Float64bits(v - v*1e-9*float64(i%7+1))
		binary.LittleEndian.PutUint64(floats[i*8:], w)
		if r := i / 32; r == 2 || r == 11 {
			binary.LittleEndian.PutUint64(floatrows[i*8:], w)
		} else {
			binary.LittleEndian.PutUint64(floatrows[i*8:], math.Float64bits(v))
		}
	}
	return map[string][2][]byte{
		"sparse":    {sparse, zero},
		"dense":     {dense, zero},
		"oneword":   {oneword, zero},
		"floats":    {floats, floatTwin},
		"floatrows": {floatrows, floatTwin},
	}
}

var diffSink int

// BenchmarkDiff applies each pattern's diff to a home page with the Go scan
// and with the SIMD kernel, side by side; simd is skipped where the kernel is
// not selected (no AVX2, a -race build).
func BenchmarkDiff(b *testing.B) {
	pats := diffPatterns()
	home := make([]byte, 4096)
	for _, name := range []string{"sparse", "dense", "oneword", "floats", "floatrows"} {
		data, twin := pats[name][0], pats[name][1]
		b.Run(name, func(b *testing.B) {
			b.Run("go", func(b *testing.B) {
				b.SetBytes(4096)
				for i := 0; i < b.N; i++ {
					diffSink += diffScanGo(home, data, twin)
				}
			})
			b.Run("simd", func(b *testing.B) {
				if _, ok := simd.Diff(home, data, twin); !ok {
					b.Skip("the SIMD diff kernel is not selected in this build or on this host")
				}
				b.SetBytes(4096)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx, _ := simd.Diff(home, data, twin)
					diffSink += tx
				}
			})
		})
	}
}
