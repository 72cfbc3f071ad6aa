#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# benchmark. Run from the root of the repository:
#
#   bash bench/run.sh --workload flash_crowd --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh suite --runs 10 --file A.json
#   bash bench/run.sh compare A.json B.json
#
# Everything it writes — Go's build cache, the binary, data directories,
# result and span files — stays under .bench_build in the current directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/proxdisc-bench" .
exec "$build/proxdisc-bench" "$@"
