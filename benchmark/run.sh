#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments pass through:
#
#   bash benchmark/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and everything the run
# writes stay in the build directory: $CARGO_TARGET_DIR if set, else
# .bench_build at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
(cd benchmark && go build -buildvcs=false -o "$build/benchmark" .)
exec "$build/benchmark" --out "$build" --commit "$commit" "$@"
