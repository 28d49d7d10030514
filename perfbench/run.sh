#!/usr/bin/env bash
# Builds the kv benchmark from the checkout's source and runs it with the
# given arguments, e.g.:
#
#   bash perfbench/run.sh --workload put --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (the Go build cache, the binary, temporary WAL directories and span
# files) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOPATH="$out/home/go" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
