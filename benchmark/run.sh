#!/usr/bin/env bash
# run.sh — builds the harness inside the checkout and runs it with the
# arguments given.  Everything the Go toolchain writes (build cache,
# temporary files, binaries) stays under .bench_build at the root of the
# checkout, and nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
