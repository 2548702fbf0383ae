#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) goes under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
