#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-dfcm --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, module cache, the binary)
# goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/bin"

(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off \
		go build -o "$out/bin/perfbench" .
)

exec "$out/bin/perfbench" "$@"
