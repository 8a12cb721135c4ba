#!/usr/bin/env bash
# Builds the perfbench program from source and runs it from the repository
# root, passing every argument through. All build output, the Go build
# cache included, stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload static-tracks --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
