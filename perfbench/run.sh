#!/usr/bin/env bash
# Builds the benchmark against this checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload train-uds --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ so nothing
# is written outside the checkout. Without the repository sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$bench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
