#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload net-duplex --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it writes (the Go
# build cache, the binary, span files) goes under .bench_build there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: the repository's go.mod is not next to $here; run from a full checkout" >&2
	exit 1
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
