#!/usr/bin/env bash
# Builds corona-load from the sources of the checkout this script sits in,
# then runs it from the checkout root with the given flags, e.g.
#
#   bash corona-load/run.sh --workload longtail --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, node data directories and traces all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/corona-load" && go build -o "$out/bin/corona-load" .)
cd "$root"
exec "$out/bin/corona-load" "$@"
