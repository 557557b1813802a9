#!/usr/bin/env bash
# Entry point for BENCHMARK.json's command: builds the benchmark from source
# into .bench_build/ (Go's build cache included, so nothing is written
# outside the checkout) and runs it with the driver's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the module there is no program to build: fail before starting go.
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program under test is not here" >&2
	exit 2
fi
build="$PWD/.bench_build"
# XDG_CONFIG_HOME is where the go command keeps its own per-user files. With
# telemetry in its default local mode the go command starts a detached child
# once a day per config dir, which would outlive this script: switch it off.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -o "$build/exsample-benchmark" ./benchmark
exec "$build/exsample-benchmark" "$@"
