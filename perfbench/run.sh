#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload fabric-h6 --seed 1 --seconds 20 --trace 0
# Build caches and outputs stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-trimpath CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
