#!/usr/bin/env bash
# Builds tlbbench from the checkout's sources and runs it with the given
# flags, from the root of the checkout:
#
#   bash cmd/tlbbench/run.sh --workload table4 --seed 1 --seconds 20 --trace 0
#
# tlbbench is a package of the repository's own module, so it builds with
# the repository's go.mod. Everything the build and the run write stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build): the
# Go build cache, the binary and the benchmark's scratch files. The build is
# offline.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root" && go build -o "$out/tlbbench" ./cmd/tlbbench)
exec "$out/tlbbench" -scratch "$out/tlbbench-work" "$@"
