#!/usr/bin/env bash
# Builds the benchmark from source inside this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-plane --seed 3 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build at the checkout root. The build needs the jskernel module
# one directory up; without it the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
