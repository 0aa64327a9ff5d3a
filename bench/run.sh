#!/usr/bin/env bash
# Builds the benchmark the way the shipped binary is built (with the
# committed PGO profile) and runs it with the arguments given. Run from the
# repository root. Everything it writes stays inside the checkout: the
# binary, Go's caches and the temporary checkpoint directories live under
# .bench_build/, traces under bench/out/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/main.go ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod, internal/ and bench/ are needed)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

pgo=off
if [ -f default.pgo ]; then
	pgo=default.pgo
fi
go build -pgo="$pgo" -o "$build/amulet-bench" ./bench

exec "$build/amulet-bench" "$@"
