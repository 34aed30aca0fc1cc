#!/usr/bin/env bash
# Builds the benchmark program with the profile tusbench users get and
# runs it from the root of the checkout. Everything the build and the
# run write (Go build cache, temp files, the binary, result caches,
# trace files) goes under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/cmd/tusbench/default.pgo" ]; then
	echo "benchmark: $root is not a tusim checkout; the benchmark builds the simulator from the source around it" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$root/benchmark"
	HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
		GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -pgo="$root/cmd/tusbench/default.pgo" -o "$build/tusperf" .
)
cd "$root"
exec "$build/tusperf" "$@"
