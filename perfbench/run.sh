#!/usr/bin/env bash
# Builds the benchmark program (perfbench) and the shipped binaries it launches
# (tfserver, tfserve, tfsgd) from the checkout's source, then runs it. Run it from
# the root of the checkout:
#
#   bash perfbench/run.sh --workload hpc-apps --seed 1 --seconds 5 --trace 0
#
# Build outputs, the Go build cache and perfbench's working files all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/" . tfhpc/cmd/tfserver tfhpc/cmd/tfserve tfhpc/cmd/tfsgd) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
