#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload ident-e2e --seed 1 --seconds 40 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files, the go
# command's telemetry counters) stays under .bench_build/ in the current
# directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go -C perfbench build -trimpath -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
