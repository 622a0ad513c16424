#!/usr/bin/env bash
# Builds the CRAS benchmark from this checkout's source and runs it:
#
#   bash crasperf/run.sh --workload testbed --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. The build cache, the binary, and the
# spans and CPU profiles of traced runs all go under .bench_build/crasperf,
# so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/crasperf"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/crasperf" && go build -o "$out/crasperf" .)
cd "$root"
exec "$out/crasperf" -out "$out" "$@"
