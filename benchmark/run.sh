#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the Go toolchain writes (build
# cache, temporary files) is kept inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/xmlbench" .
exec "$build/xmlbench" "$@"
