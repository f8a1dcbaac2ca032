#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload window --seed 1 --seconds 38 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, temporary files, the binary, per-run
# scratch directories and the span files of traced runs.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
PERFBENCH_SPAWN_NS=$(date +%s%N) exec "$build/perfbench" "$@"
