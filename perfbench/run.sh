#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-fleet --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
