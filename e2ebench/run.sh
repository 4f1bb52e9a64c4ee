#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload steady_poll --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory: the Go build cache, the binary, the generated
# worlds (removed at exit) and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go tool's caches, temporary files and telemetry counters (kept under
# the user config directory) all stay under .bench_build/.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
