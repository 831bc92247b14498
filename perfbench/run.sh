#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, the driver binary,
# scratch stores and the Chrome trace all stay under .bench_build/ there.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/go-build" GOPATH="$out/home/go" GOMODCACHE="$out/home/go/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
