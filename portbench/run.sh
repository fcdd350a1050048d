#!/usr/bin/env bash
# Builds bpmsd and the portbench binary from the checkout it is run in,
# then runs the benchmark with the given arguments. Run it from the root
# of the repository:
#
#   bash portbench/run.sh --workload clearance --seed 1 --seconds 6 --trace 0
#
# Build outputs and the Go build cache go to .bench_build/ and run data
# to .bench_run/, both under the repository root, so nothing is written
# outside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bpmsd" || ! -f "$root/portbench/go.mod" ]]; then
	echo "portbench: run from the repository root (needs go.mod, cmd/bpmsd and portbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
# XDG_CONFIG_HOME keeps the toolchain's config and telemetry files in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
mkdir -p "$out/bin"
go build -buildvcs=false -o "$out/bin/bpmsd" ./cmd/bpmsd >&2
(cd portbench && go build -buildvcs=false -o "$out/bin/portbench" .) >&2
exec "$out/bin/portbench" -bpmsd "$out/bin/bpmsd" -work "$root/.bench_run" "$@"
