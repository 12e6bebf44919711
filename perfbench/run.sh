#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root, for example:
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the run artifacts (spans, profiles,
# per-layer tables) go under $CARGO_TARGET_DIR, default .bench_build,
# so nothing is read or written outside the checkout but the toolchain.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --artifacts "$out/perfbench-artifacts" "$@"
