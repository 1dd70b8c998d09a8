#!/usr/bin/env bash
# Builds the HYPRE benchmark from source and runs it with the given flags:
#
#   bash hyprebench/run.sh --workload serve-hot --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. The build cache and the binary live under
# .bench_build, so the run reads and writes only inside the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Go's caches, config and telemetry default to the home directory; keep
# them in the checkout too. The toolchain itself is only read.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOTMPDIR="$build" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/hyprebench" .)
exec "$build/hyprebench" --out "$build/hyprebench-runs" "$@"
