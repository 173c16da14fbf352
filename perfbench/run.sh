#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every build
# artifact, cache and temporary file stays under .bench_build/ in the
# working directory (the checkout root). Arguments pass through, e.g.
#   bash perfbench/run.sh --workload read-500 --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
    GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
    GOFLAGS= GOWORK=off

commit=unknown
if [ -e .git ]; then
    commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
