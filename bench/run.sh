#!/usr/bin/env bash
# Builds the benchmark driver, pfaird and pfair-router from this checkout
# and runs the driver. Everything the build and the run write stays under
# .bench_build/ in the checkout: the Go build cache, the binaries, and the
# servers' temporary data dirs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/bin/" . desyncpfair/cmd/pfaird desyncpfair/cmd/pfair-router)
exec "$build/bin/bench" -repo "$root" -bin "$build/bin" -work "$build/tmp" "$@"
