#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash e2ebench/run.sh --workload serve-auto --seed 1 --seconds 25 --trace 0
#   bash e2ebench/run.sh --refs        # fill the reference-output cache
#
# Build outputs (binary, Go build cache) go to .bench_build/ and cached
# reference outputs to .bench_refs/, both at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$here" build -o "$out/e2ebench" .
cd "$root"
exec "$out/e2ebench" "$@"
