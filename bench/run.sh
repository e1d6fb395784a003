#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# The Go build cache and the binary live in .bench_build/ at the root of the
# checkout, so a run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
cd "$here"
exec "$build/bench" "$@"
