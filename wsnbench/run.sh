#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments, e.g.
#
#   bash wsnbench/run.sh --workload mission --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/. The
# build needs the repository's own module one directory up; outside a
# checkout it fails and nothing runs.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -C "$root/wsnbench" -o "$out/wsnbench" .
exec "$out/wsnbench" "$@"
