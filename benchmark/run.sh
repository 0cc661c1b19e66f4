#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash benchmark/run.sh --workload oneshot --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Every build product and Go cache
# stays under the build directory ($CARGO_TARGET_DIR, else .bench_build)
# inside the checkout; the build needs no network.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-tmp"

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/config GOENV=off GOWORK=off
export GOTMPDIR=$build/go-tmp GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/benchmark" && go build -o "$build/atmem-benchmark" .)
exec "$build/atmem-benchmark" --spans-dir "$build/spans" "$@"
