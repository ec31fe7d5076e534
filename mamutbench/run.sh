#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash mamutbench/run.sh --workload paper-quick --seed 1 --seconds 25 --trace 0
#
# Every build output and Go cache lands in .bench_build/ at the repository
# root, so a run writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$out/mamutbench" .
)
exec "$out/mamutbench" "$@"
