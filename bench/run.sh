#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds the harness from
# source into <checkout>/.bench_build and runs it. Everything it writes —
# build cache, binaries, data directories, span files — stays inside the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/bin"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/rdbsc-benchmark" .)
exec "$build/bin/rdbsc-benchmark" -root "$root" "$@"
