#!/usr/bin/env bash
# Builds w5d and the benchmark from this checkout, then runs one
# benchmark run. Run from the repository root:
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 35 --trace 0
# Everything it writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off TMPDIR="$out/tmp"
go build -o "$out/w5d" ./cmd/w5d
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -w5d "$out/w5d" -workdir "$out/tmp" "$@"
