#!/usr/bin/env bash
# Builds the DNS benchmark of record from source and runs it with the
# given arguments (see dnsbench/README.md). Run from the repository
# root: bash dnsbench/run.sh --workload decay_n64_slab --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/dnsbench" .)
exec "$out/dnsbench" -outdir "$out" "$@"
