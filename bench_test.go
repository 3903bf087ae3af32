// Benchmarks that regenerate the paper's tables and figures through the
// testing.B interface — one benchmark per table/figure, wrapping the same
// runners as cmd/argo-bench (in quick mode so `go test -bench=.` finishes
// in minutes; run `go run ./cmd/argo-bench` for the full sweeps). The host
// cost of the protocol's hot paths is the perf ledger's business
// (`bash benchmark/run.sh --trace 1` prints the per-layer unit costs), and the
// package-level benchmarks beside the code they time.
package argo_test

import (
	"io"
	"testing"

	"argo/internal/harness"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(true)
		if err != nil {
			b.Fatal(err)
		}
		harness.Fprint(io.Discard, tables...)
	}
}

func BenchmarkTable1Classification(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1Trends(b *testing.B)           { benchExperiment(b, "fig1") }
func BenchmarkFig7Bandwidth(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8Classification(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9and10WriteBuffer(b *testing.B) { benchExperiment(b, "fig9-10") }
func BenchmarkFig11LocksNative(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12LocksDSM(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13aLU(b *testing.B)             { benchExperiment(b, "fig13a") }
func BenchmarkFig13bNbody(b *testing.B)          { benchExperiment(b, "fig13b") }
func BenchmarkFig13cBlackscholes(b *testing.B)   { benchExperiment(b, "fig13c") }
func BenchmarkFig13dMM(b *testing.B)             { benchExperiment(b, "fig13d") }
func BenchmarkFig13eEP(b *testing.B)             { benchExperiment(b, "fig13e") }
func BenchmarkFig13fCG(b *testing.B)             { benchExperiment(b, "fig13f") }
