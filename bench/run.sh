#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the toolchain and the benchmark
# write stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$out/monarch-ledger" .) >&2
cd "$root"
exec "$out/monarch-ledger" "$@"
