#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload adhoc-node --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set), including the Go build cache.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
cd "$root/perfbench"
# No telemetry child process may outlive the build and share the CPUs.
go telemetry off
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -workdir "$out/work" "$@"
