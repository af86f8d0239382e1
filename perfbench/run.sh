#!/usr/bin/env bash
# Builds the benchmark binary from source into .bench_build and runs it from
# the repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload quick-4h --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and tool configuration stay inside
# .bench_build, so the benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
