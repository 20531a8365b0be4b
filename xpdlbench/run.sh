#!/usr/bin/env bash
# Builds xpdlbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash xpdlbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every file the build or the run
# writes stay in .bench_build/ below the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

(cd "$root/xpdlbench" && go build -buildvcs=false -o "$out/xpdlbench" .)
exec "$out/xpdlbench" "$@"
