#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes stays under .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME and GOTMPDIR keep the go command's telemetry counters
# and scratch files in there too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/gridmark" .)
commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
exec "$build/gridmark" -commit "$commit" "$@"
