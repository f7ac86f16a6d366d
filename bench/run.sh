#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout (Go's build cache included, so nothing is written outside
# it), then run it with the driver's arguments. Run from the repository
# root; without the repository's go.mod the build fails and so does this.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -o "$build/immune-bench" ./bench
exec "$build/immune-bench" "$@"
