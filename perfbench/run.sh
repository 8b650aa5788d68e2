#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload daemon-tiny --seed 1 --seconds 25 --trace 0
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, daemon stores, span files) stays under
# .bench_build/perfbench in the current directory.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build/perfbench"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath" \
	TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --dir "$work" "$@"
