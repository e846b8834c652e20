#!/usr/bin/env bash
# Builds meshbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash meshbench/run.sh --workload perm-bulk --seed 1 --seconds 30 --trace 0
#
# Every build product (binary, Go build cache) stays under .bench_build/
# at the checkout root, so the run reads and writes nothing outside the
# checkout. The build needs the repository's own sources next to this
# directory; without them it fails before anything is measured.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off
go -C meshbench build -o "$out/bin/meshbench" .
exec "$out/bin/meshbench" "$@"
