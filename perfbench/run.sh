#!/usr/bin/env bash
# Builds the benchmark and galactosd from the checkout it is run in, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload box-default --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/galactosd" ./cmd/galactosd

exec "$out/bin/perfbench" -galactosd "$out/bin/galactosd" -workdir "$out" "$@"
