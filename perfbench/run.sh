#!/usr/bin/env bash
# Builds the benchmark and the programs it measures from this checkout,
# then runs one workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps telemetry and other state under the user's config
# directory; keep it in the checkout too.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
go build -o "$build/bin/" repro/cmd/pcd repro/cmd/pcbench
cd "$root"
exec "$build/bin/perfbench" --bin "$build/bin" --work "$build/work" "$@"
