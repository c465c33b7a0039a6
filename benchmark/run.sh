#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# next to benchmark/) and runs it from the checkout root with the caller's
# arguments. Build cache and Go's own bookkeeping are pointed into
# .bench_build/ too, so a run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$build/cadmc-bench" .
)
cd "$root"
exec "$build/cadmc-bench" -outdir benchmark/out "$@"
