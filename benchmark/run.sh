#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build writes
# (binary, Go build and module caches) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/elasticutor-benchmark" .)
cd "$root"
exec "$build/elasticutor-benchmark" "$@"
