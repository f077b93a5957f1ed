#!/usr/bin/env bash
# Builds the benchmark and paotrserve from the checkout it sits in, then
# runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload twins --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
go build -C "$root" -o "$out/paotrserve" ./cmd/paotrserve >&2
exec "$out/perfbench" -paotrserve "$out/paotrserve" "$@"
