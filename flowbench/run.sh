#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the root of a checkout:
#
#   bash flowbench/run.sh --workload live-iterative --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)

# Keep the toolchain local and every file it writes inside the checkout.
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
(cd "$root/flowbench" && HOME="$out/home" go build -trimpath -buildvcs=false -o "$out/flowbench" .)

if [ -d "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export FLOWBENCH_COMMIT="$commit"
fi
exec "$out/flowbench" --scratch "$out/scratch" "$@"
