#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash bench/e2e/run.sh --workload run-sweep --seed 1 --seconds 10 --trace 0
#   bash bench/e2e/run.sh compare -a <dir> -b <dir>
#
# Builds, Go caches and results stay under .bench_build/ in the working
# directory. Outside a full checkout the build fails and so does this script.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/bench/e2e" build -o "$build/e2e" .
exec "$build/e2e" "$@"
