#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Run from the repository root:
#
#   bash benchmark/run.sh --workload serve_read --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under ./.bench_build
# (Go's build cache and temporary directory included) and ./benchmark/out.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$src" && go build -o "$build/allnn-benchmark" .)
exec "$build/allnn-benchmark" "$@"
