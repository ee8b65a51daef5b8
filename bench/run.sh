#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Run from the repository root: bash bench/run.sh [flags] (see README.md).
# Everything the build writes (binary, Go build cache) lands in
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/pipeleon-bench" .)
exec "$out/pipeleon-bench" "$@"
