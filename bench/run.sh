#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given flags; BENCHMARK.json's command. Everything the build writes —
# Go's build cache, temporary files, telemetry — stays inside the
# checkout, under bench/.build/. Go's telemetry is switched off in that
# private config directory: with a fresh one, the go command would start
# a background child of itself (the telemetry uploader) that outlives
# this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/.build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/videobench" ./bench
exec "$build/videobench" "$@"
