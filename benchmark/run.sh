#!/bin/sh
# Builds the benchmark into .bench_build/ and runs it from the checkout
# root with the arguments given, e.g.
#   bash benchmark/run.sh --workload qs_lazy --seed 1 --seconds 15 --trace 0
# Everything the Go toolchain writes — build cache, temp files, module
# cache, its telemetry counters (which follow XDG_CONFIG_HOME) — is sent
# to .bench_build/ too, so nothing is written outside the checkout, and
# the network is never asked for a module or a toolchain.
set -eu
root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (BENCHMARK.json and go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local \
	go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
