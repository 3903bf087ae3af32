#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the ledger program from source
# inside the checkout (binary and Go build cache under .bench_build/, so
# nothing is written outside it) and runs it with the arguments given.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
go build -o "$build/argo-benchmark" ./benchmark
exec "$build/argo-benchmark" "$@"
