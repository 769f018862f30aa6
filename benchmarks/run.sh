#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, keeping every
# file it writes (Go build cache included) inside the checkout:
#
#   bash benchmarks/run.sh --workload journal_lan --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The first call compiles (about half a
# minute with a cold cache); later calls reuse .bench_build/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$here/e2e" -o "$build/e2e" .
cd "$root"
exec "$build/e2e" "$@"
