#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash bench/run.sh --workload campaign_matrix --seed 1 --seconds 18 --trace 0
#   bash bench/run.sh --seed 1 --out results.json     # all four workloads
#
# Run it from the root of a checkout. Everything the build and the run
# write (toolchain caches, the binary, the coordinator's journal) stays
# under .bench_build/ in that checkout. Without the repository's sources
# beside bench/ the build fails and the script exits nonzero.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# Build under a private name and rename, so two runs sharing a checkout
# never execute a half-written binary.
(cd bench && go build -o "$build/bench.$$" .)
mv -f "$build/bench.$$" "$build/bench"
exec "$build/bench" "$@"
