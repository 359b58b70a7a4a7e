#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload cell-long --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# scratch stores and snapshots, span dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# Keep the toolchain local and offline, and its caches and temporary files
# (telemetry included, which lives under the user config directory) inside
# the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
