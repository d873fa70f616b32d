#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from this
# directory and runs it from the checkout's root; the benchmark then builds
# sacserver, sacshard and sacrouter from the checkout's own source. Every file
# either build writes — Go's build cache included — stays under
# <checkout>/.bench_build, so a run neither reads nor leaves anything outside
# the checkout. In a directory without the repository's sources the build
# fails and this script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
