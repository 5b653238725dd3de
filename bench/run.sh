#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh -workload steady -seed 1 -seconds 15
#
# Everything the build and the run write stays in .bench_build/ at the
# root of the checkout: the Go build cache, the go command's temporary and
# config files, the binary and the benchmark's on-disk caches. The build
# fails, and so does this script, when the checkout lacks the repository's
# Go module (bench/ builds against ../).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/daisy-bench" .)
cd "$root"
exec "$out/daisy-bench" "$@"
