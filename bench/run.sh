#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given flags, e.g.:
#
#   bash bench/run.sh --workload fp-vs-mc --seed 3 --seconds 22 --trace 0
#
# Everything the build writes (Go build cache, temporary files, Go's
# own config such as telemetry counters, the binary) stays under
# .bench_build/ at the repository root, as do the results and traces.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

cd "$root/bench"
go build -o "$out/fpccbench" .
exec "$out/fpccbench" "$@"
