#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, from the root of the checkout:
#
#   bash ebmbench/run.sh --workload online_mem --seed 0 --seconds 15 --trace 0
#
# The Go build cache, its configuration and telemetry, temporary files and
# the binary all stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/ebmbench" && go build -o "$out/ebmbench" .)
exec "$out/ebmbench" "$@"
