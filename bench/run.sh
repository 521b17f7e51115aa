#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness and matchserve
# from source into .bench_build/ at the checkout root (a no-op when nothing
# changed) and runs the harness from there. Everything Go writes — build
# cache, temp files, module cache — is kept inside the checkout, so the
# benchmark works with no $HOME and touches nothing outside.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
t0=$(date +%s.%N)
(cd bench && go build -o "$out/hostbench" .)
go build -o "$out/matchserve" ./cmd/matchserve
t1=$(date +%s.%N)
export BENCH_BUILD_S BENCH_OUT="$out"
BENCH_BUILD_S=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')
exec "$out/hostbench" "$@"
