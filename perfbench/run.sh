#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it; every
# argument is passed through (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/perfbench.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off
if ! (cd perfbench && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" --out "$out" "$@"
