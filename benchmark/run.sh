#!/usr/bin/env bash
# Builds tangobench from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside the
# checkout) and runs it from that root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	# Keep everything the go command writes (build cache, module cache,
	# its telemetry config) inside the checkout.
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
	export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
	cd "$here" && go build -o "$build/tangobench" .
) >&2
cd "$root"
exec "$build/tangobench" "$@"
