#!/usr/bin/env bash
# Builds the benchmark with every build product inside the checkout
# (.bench_build/), then runs it from the checkout's root with the given
# arguments. With no arguments it runs all four workloads; BENCHMARK.json's
# driver adds --workload/--seed/--seconds/--trace.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
