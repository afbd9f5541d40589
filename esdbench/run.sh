#!/bin/sh
# Builds esdbench from this checkout's sources and runs it. Run it from
# the checkout root, with esdbench's flags:
#
#   sh esdbench/run.sh --workload routed-scalar --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all stay
# under .bench_build in the checkout.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
go -C esdbench build -o "$out/esdbench" .
exec "$out/esdbench" "$@"
