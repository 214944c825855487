#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-edelay --seed 1 --seconds 15 --trace 0
#
# Build products and the Go build cache stay under .bench_build/ and run
# reports under .bench_out/, both in the current directory. The build
# output goes to stderr so that stdout ends with the result line.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# Everything the go command writes (build cache, temporary files, module
# cache, telemetry under the user config directory) stays in .bench_build.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
