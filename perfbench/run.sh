#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the arguments given, e.g.
#   bash perfbench/run.sh --workload pagerank --seed 1 --seconds 10 --trace 0
# Run it from the root of the repository. Build outputs, the Go build
# cache and the traced run's spans all stay under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
