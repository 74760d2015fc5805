#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The Go
# build cache and the binary live under .bench_build/ in the checkout, so a
# run reads and writes nothing outside it. Arguments pass through, e.g.
#   bash benchmark/run.sh --workload fold --seed 1 --seconds 16 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/desis-benchmark" .)
exec "$build/desis-benchmark" -root "$root" "$@"
