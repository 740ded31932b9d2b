#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload metro-day --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, checkpoints, span dumps) stays under
# .bench_build in the current directory. Outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --workdir "$out/run" "$@"
