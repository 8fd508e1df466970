#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload replica-rw --seed 1 --seconds 24 --trace 0
#   bash perfbench/run.sh --compare base-results/ new-results/
#
# Everything the build writes (Go build cache, temporary files, the binary,
# result and span files) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
