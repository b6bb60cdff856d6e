#!/bin/sh
# Builds the benchmark, and with it the program it measures, from the
# sources of this checkout, then runs it from the checkout's root.
# Everything the build writes stays under .bench_build in the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
		go build -buildvcs=false -o "$build/discfs-benchmark" .
)
cd "$root"
exec "$build/discfs-benchmark" "$@"
