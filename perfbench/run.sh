#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. The build cache, the binary and every file
# a run writes stay under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go_bin="$(command -v go || true)"
if [ -z "$go_bin" ] && [ -x /usr/local/go/bin/go ]; then
	go_bin=/usr/local/go/bin/go
fi
if [ -z "$go_bin" ]; then
	echo "perfbench: no go toolchain on PATH" >&2
	exit 1
fi

"$go_bin" -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -tmp "$out" "$@"
