#!/usr/bin/env bash
# Builds the benchmark, the ladder and montage-serve from this checkout
# and runs the benchmark with the given arguments (see main.go). All
# build output, the Go build cache included, stays under benchmark/out.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmark/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/bin/" ./benchmark ./benchmark/ladder ./cmd/montage-serve >&2
exec "$out/bin/benchmark" "$@"
