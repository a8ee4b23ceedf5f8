#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload clang-lbr --seed 1 --seconds 10 --trace 0
#
# Everything the go command writes (build cache, temporary files, its own
# configuration) stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
