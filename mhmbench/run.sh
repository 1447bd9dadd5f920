#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments, for example:
#
#   bash mhmbench/run.sh --workload paper-replay --seed 1 --seconds 10 --trace 0
#
# Every Go cache and config directory points inside .bench_build/, so
# the build reads and writes nothing outside the checkout apart from the
# Go toolchain itself. Module downloads and toolchain switches are off:
# the benchmark needs only the parent module and the standard library.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/mhmbench" && go build -o "$out/mhmbench" .) >&2
exec "$out/mhmbench" "$@"
