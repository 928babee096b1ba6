#!/usr/bin/env bash
# Builds rpqd and the benchmark driver from the checkout this script sits
# in, then runs one workload against a live rpqd:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, cache and scratch
# data directory goes under .bench_build/ there; nothing is written
# elsewhere. The last line of standard output is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# With telemetry on, the go command starts a detached child process that
# outlives this script; turning it off in the private config keeps every
# process the benchmark starts inside its lifetime.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/rpqd" ./cmd/rpqd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -rpqd "$out/rpqd" -work "$out/work" -traces "$out/traces" "$@"
