#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload avg-tiny --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, scratch data, traces) stays under the build
# directory, $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/home"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOTELEMETRY=off

go build -C "$root/perfbench" -o "$build/perfbench" .
# Not exec'd: the benchmark reads its children's peak memory, which must not
# include the go build above.
"$build/perfbench" --out "$build" "$@"
