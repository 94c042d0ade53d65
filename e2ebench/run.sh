#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits in
# and runs it. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload paper-pair --seed 1 --seconds 25 --trace 0
#   bash e2ebench/run.sh compare OLD NEW
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, result artifacts, traces
# and the scratch result caches of the sweep workload.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root: go.mod, internal/ and e2ebench/ must be present" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/e2ebench" && go build -buildvcs=false -trimpath -o "$out/e2ebench" .)
exec "$out/e2ebench" -dir "$out" "$@"
