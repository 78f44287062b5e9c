#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the repository:
#
#   bash benchmark/run.sh --workload solve-large --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the toolchain's config and telemetry
# files and the benchmark's scratch files all stay under .bench_build/
# in the current directory. The build needs no network: the benchmark is
# its own module and imports only the repository (through a replace
# directive) and the standard library.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
