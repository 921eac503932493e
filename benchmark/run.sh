#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the checkout. Build outputs and the Go
# caches stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= \
	GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
