package simd

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"argo/internal/racetag"
)

// cpuFlags returns the flags /proc/cpuinfo lists for the first CPU, or nil
// where there is no such file: a second opinion on the host, independent of
// the CPUID check under test.
func cpuFlags() map[string]bool {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags := map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			return flags
		}
	}
	return nil
}

// TestKernelsSelected makes sure that an amd64 build without -race on an AVX2
// host really runs both kernels, so that no ledger number silently comes from
// the Go fallback, and that the entry points decline what the kernels do not
// cover. It skips on any other host or build.
func TestKernelsSelected(t *testing.T) {
	if runtime.GOARCH != "amd64" || racetag.Enabled {
		t.Skip("the kernels are selected only in amd64 builds without -race")
	}
	if flags := cpuFlags(); !flags["avx2"] || !flags["popcnt"] {
		t.Skip("no /proc/cpuinfo listing avx2 and popcnt")
	}
	if !useDiff {
		t.Fatal("/proc/cpuinfo lists avx2 and popcnt, but the diff kernel is not selected")
	}

	data, twin, home := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	data[33] = 1
	if tx, ok := Diff(home, data, twin); !ok || tx != 9 || home[33] != 1 {
		t.Fatalf("Diff of one changed byte in 64 = (%d, %v), home[33] = %d; want (9, true), 1", tx, ok, home[33])
	}
	if tx, ok := Diff(nil, data, twin); !ok || tx != 9 {
		t.Fatalf("sizing-only Diff = (%d, %v), want (9, true)", tx, ok)
	}
	for _, d := range []struct {
		name             string
		home, data, twin []byte
	}{
		{"length not a multiple of 32", home[:40], data[:40], twin[:40]},
		{"short twin", home, data, twin[:32]},
		{"short home", home[:32], data, twin},
	} {
		if _, ok := Diff(d.home, d.data, d.twin); ok {
			t.Errorf("Diff accepted a %s", d.name)
		}
	}

	if fusesMulAdd() {
		t.Skip("this build fuses multiply-add: the Go block update runs, as it must")
	}
	if !useMulSub {
		t.Fatal("the diff kernel is selected and the build does not fuse, but the block kernel is not selected")
	}
	const b = 16
	c, a, bb := make([]float64, b*b), make([]float64, b*b), make([]float64, b*b)
	for i := range a {
		a[i], bb[i] = 1, 2
	}
	if !MulSub(c, a, bb, b) || c[0] != -2*b || c[b*b-1] != -2*b {
		t.Fatalf("MulSub on 16×16 ones·twos: c[0] = %v, c[last] = %v, want %v", c[0], c[b*b-1], -2*b)
	}
	if MulSub(c, a, bb, 8) || MulSub(c, a, bb, 24) || MulSub(c[:b*b-1], a, bb, b) || MulSub(c, a, bb[:1], b) {
		t.Error("MulSub accepted a block size that is not a multiple of 16 or a short operand")
	}
}
