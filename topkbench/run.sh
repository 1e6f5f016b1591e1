#!/usr/bin/env bash
# Builds topkd and the benchmark program from this checkout, then runs one
# workload. Run it from the root of the repository:
#
#   bash topkbench/run.sh --workload topk_signoff --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes goes under $CARGO_TARGET_DIR (default
# .bench_build): the binaries, Go's build cache and temporary files, span
# files and snapshot state.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/topkd" topkagg/cmd/topkd && go build -o "$out/topkbench" .) >&2
exec "$out/topkbench" -topkd "$out/topkd" -out "$out" "$@"
