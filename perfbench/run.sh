#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload fig7-adaptive --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old-runs/ new-runs/
#
# Everything the build and the run write stays in .bench_build/ at the
# root of the checkout: the Go build cache, GOPATH, the toolchain's
# config and telemetry directory, the binary, cache files and sockets.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
