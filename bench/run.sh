#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload:
#
#   bash bench/run.sh --workload web-panel --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # go env and telemetry files
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$out/vmprovbench" .)
exec "$out/vmprovbench" "$@"
