#!/usr/bin/env bash
# Builds cmd/ambitd and the benchmark from this checkout, then runs one
# benchmark pass.  Run from the repository root:
#
#   bash perfbench/run.sh --workload svc-query --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache and run artifacts (span files, reports) go to
# .bench_build/ in the checkout; nothing is written anywhere else.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/ambitd || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (go.mod, cmd/ambitd and perfbench/ not found)" >&2
  exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/runs"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/ambitd" ./cmd/ambitd >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -ambitd "$out/bin/ambitd" -out "$out/runs" "$@"
