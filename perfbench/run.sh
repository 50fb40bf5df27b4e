#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload lstm-wmt --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache) and the journal segments of a run stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

# The go command writes only inside $out: its build cache, module cache and
# per-user configuration are redirected there, and it never downloads a
# toolchain or module.
(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" --scratch "$out" "$@"
