#!/usr/bin/env bash
# Builds the benchmark from the checkout this script lives in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload multihop --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and span file stays under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
