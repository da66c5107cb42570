#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json runs it from the repository
# root): build groupcast-bench from source, then become it. The build and
# everything the go tool writes stay inside ./.bench_build; nothing is left
# running, because exec replaces this shell with the one benchmark process.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# go's telemetry would write counters under $HOME and, once a day, start a
# detached uploader child that can outlive the build: point its directory
# into the checkout and switch it off there.
echo off >"$build/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -C internal/bench -o "$build/groupcast-bench" ./cmd/groupcast-bench
exec "$build/groupcast-bench" "$@"
