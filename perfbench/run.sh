#!/usr/bin/env bash
# Builds the kprof CLI and the benchmark from the tree this script sits in,
# then runs the benchmark with the arguments given, for example:
#
#   bash perfbench/run.sh --workload proday --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --list
#
# Run it from the root of the tree. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/run.sh" ]]; then
	echo "perfbench: run from the root of the tree (perfbench/run.sh not found under $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

# Build output goes to stderr: the last line of stdout is the result.
if ! go build -o "$out/kprof" ./cmd/kprof >&2; then
	echo "perfbench: building cmd/kprof failed" >&2
	exit 3
fi
if ! (cd perfbench && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: building the benchmark failed" >&2
	exit 3
fi
exec "$out/perfbench" -kprof "$out/kprof" -work "$out/perfbench-work" "$@"
