#!/usr/bin/env bash
# Builds the flashsim benchmark from the surrounding checkout and runs it.
# Run from the checkout root:
#
#   bash perfbench/run.sh --workload fleet-cluster --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files, Go
# config) stays under .bench_build in the checkout; the toolchain is never
# asked to download anything.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
