#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; arguments pass through, for example:
#
#   bash perfbench/run.sh --workload resolve_gaussian --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and Chrome traces all stay under
# .bench_build/perfbench in the repository.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
