#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it.
# Everything the build writes stays under .bench_build/ in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -buildvcs=false -o "$build/snap-benchmark" .
exec "$build/snap-benchmark" "$@"
