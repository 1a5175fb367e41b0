#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it.
#
#   bash dorambench/run.sh --workload sim-corun --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# run artefacts all stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# Everything the go command writes (build cache, temporary files, module
# cache, telemetry counters) lands under $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export TMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/dorambench" .)
exec "$out/dorambench" -out "$out/out" "$@"
