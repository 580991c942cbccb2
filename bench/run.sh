#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it with the
# arguments given. Everything the build writes stays under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
go build -C "$bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
