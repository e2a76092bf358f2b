#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source with
# every Go cache inside the checkout, then runs it with the caller's flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C "$root/bench" -o "$build/sommbench" .
exec "$build/sommbench" -root "$root" "$@"
