#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash aflperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/ at the
# checkout root.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$bench" && go build -o "$out/aflperf" .) >&2
cd "$root"
exec "$out/aflperf" "$@"
