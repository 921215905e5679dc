#!/usr/bin/env bash
# Builds the m3v benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload fig9-mux --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# traced-run reports, CPU profiles) goes to .bench_build/ at the repository
# root. The build uses only the local toolchain and the local source tree.
set -euo pipefail

dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$dir/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$dir" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -root "$root" -out "$out" "$@"
