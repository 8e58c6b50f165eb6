#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload scan_pvfs --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, Go's temporary files and the traced
# runs' span dumps all stay under .bench_build/ in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
