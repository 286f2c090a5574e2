#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload factor --seed 1 --seconds 25 --trace 0
# --workload all runs every workload in turn. Run it from the repository
# root. Build outputs and the Go caches stay under .bench_build/ (or
# $CARGO_TARGET_DIR), so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
	shift 2
	for w in factor factor-ft serve dist; do
		"$build/perfbench" --workload "$w" "$@"
	done
	exit 0
fi
exec "$build/perfbench" "$@"
