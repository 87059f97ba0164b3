#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the trace files all live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is read or
# written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
