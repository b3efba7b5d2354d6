#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the caller's arguments.
# Everything the build writes (object cache, temp files, the binary) stays
# under .bench_build/ in the current directory, the root of the checkout.
set -euo pipefail
src=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$src" && go build -o "$out/cqp-benchmark" .)
exec "$out/cqp-benchmark" "$@"
