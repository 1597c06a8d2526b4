#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it
# with the given flags. Run it from the repository root:
#
#   bash benchmark/run.sh --workload paper-figs --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, temporary files, the
# harness binary and the trace files.
set -euo pipefail

out=.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$PWD/$out/gocache"
export GOTMPDIR="$PWD/$out/tmp"
export GOMODCACHE="$PWD/$out/gomod"
export TMPDIR="$PWD/$out/tmp"
# The harness needs nothing outside the standard library and the repo:
# never fetch a module or a toolchain.
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd benchmark && go build -o "../$out/gatbench" .)
exec "$out/gatbench" "$@"
