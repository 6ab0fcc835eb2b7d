#!/usr/bin/env bash
# Builds the served end-to-end benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload point-example1 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# temporary file stay under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
