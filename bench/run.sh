#!/bin/sh
# The benchmark's entry point: `sh bench/run.sh -workload W -seed N -seconds S -trace 0|1`
# from the repository root. It runs the harness with `go run`, keeping the
# Go build cache and the toolchain's temporary files under bench/out/, so
# that a run reads and writes nothing outside its checkout. The first run
# in a fresh checkout therefore compiles the standard library too.
set -e
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$here/out/gocache" "$here/out/gotmp"
export GOCACHE="$here/out/gocache" GOTMPDIR="$here/out/gotmp"
exec go run -C "$here" roboads/bench "$@"
