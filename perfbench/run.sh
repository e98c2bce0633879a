#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument is passed on (see perfbench/README.md). Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload profile-scan --seed 1 --seconds 15 --trace 0
#
# Everything the build writes goes under .bench_build/ in the working
# directory, and the go command may not reach the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
