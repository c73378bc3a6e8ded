#!/usr/bin/env bash
# Builds the benchmark and the priview-serve binary from the source of
# the checkout it is run in, then runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 40 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$bench" && go build -o "$out/perfbench" . && go build -o "$out/priview-serve" priview/cmd/priview-serve) >&2
exec "$out/perfbench" -serve-bin "$out/priview-serve" -work "$out" "$@"
