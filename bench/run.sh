#!/usr/bin/env bash
# Builds widxbench from the repository sources and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload kernel-build --seed 1 --seconds 10 --trace 0
#
# Everything the build and the benchmark write (the Go build cache, the
# binary, warm stores, result stores, span files) stays under .bench_build/
# in the current directory. Without the simulator sources next to bench/,
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$out/bin/widxbench" ./widxbench
exec "$out/bin/widxbench" "$@"
