#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# root of the checkout:
#
#   bash wgbench/run.sh --workload engine --seed 1 --seconds 20 --trace 0
#   bash wgbench/run.sh suite --seed 1 --seconds 20 [--trace 1]
#   bash wgbench/run.sh compare <result dir A> <result dir B>
#
# Everything stays under .bench_build/ in the checkout: the binary in bin/,
# the Go build cache, and every result file in wgbench/.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/bin/wgbench" .) >&2
exec "$build/bin/wgbench" "$@"
