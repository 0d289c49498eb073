#!/usr/bin/env bash
# Builds the repository benchmark from this checkout and runs it with the
# given arguments. Run from the checkout root:
#
#	bash perfbench/run.sh --workload charm-strong --seed 0 --seconds 24 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, so the benchmark reads and writes nothing outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
