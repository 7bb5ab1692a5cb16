#!/usr/bin/env bash
# Builds cmd/leakd and the benchmark from this checkout's sources, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, Go cache and run
# directory stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/leakd" ./cmd/leakd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
