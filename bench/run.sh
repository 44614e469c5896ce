#!/usr/bin/env bash
# The command of BENCHMARK.json: build the harness from source inside the
# checkout, then run it with the arguments given. Everything the build
# leaves behind goes under .bench_build at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/anor-perfbench" .) >&2
cd "$root"
exec "$build/anor-perfbench" "$@"
