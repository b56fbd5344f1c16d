#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload hub-clean --seed 1 --seconds 28 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/dicebench" .)
exec "$out/dicebench" -workdir "$out" "$@"
