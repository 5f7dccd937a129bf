#!/usr/bin/env bash
# Builds the WiClean benchmark from the sources of this checkout and runs
# one workload. Run it from the repository root:
#
#   bash bench/run.sh --workload walk --seed 1 --seconds 45 --trace 0
#
# The binary, Go's build cache and the run's data files all live under
# .bench_build, so a run writes nothing outside the checkout. A failed
# build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/bench" && go build -buildvcs=false -o "$out/wiclean-bench" .)
exec "$out/wiclean-bench" -work "$out" "$@"
