#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload offline-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, benchmark binary,
# temp stores and spools, span dumps) stays under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C bench -o "$out/probebench" .
exec "$out/probebench" -workdir "$out" "$@"
