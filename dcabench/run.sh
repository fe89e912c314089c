#!/usr/bin/env bash
# Builds the DCA benchmark from this checkout's sources and runs it from the
# checkout root. Build outputs, the Go build cache and every scratch file stay
# under .bench_build/ in the checkout.
#
#   bash dcabench/run.sh --workload npb-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/dcabench" && go build -o "$out/dcabench" .)
cd "$root"
exec "$out/dcabench" -workdir "$out/tmp" "$@"
