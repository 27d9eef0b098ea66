#!/usr/bin/env bash
# Builds the srjperf benchmark from source and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash srjperf/run.sh --workload local-draw --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, temporary
# files, WAL directories, and trace files.
set -euo pipefail

root="$PWD"
work="${CARGO_TARGET_DIR:-.bench_build}"
case "$work" in /*) ;; *) work="$root/$work" ;; esac
mkdir -p "$work/gocache" "$work/gopath" "$work/tmp" "$work/config"

export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOMODCACHE="$work/gopath/pkg/mod"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly
export GOPROXY=off

(cd "$root/srjperf" && go build -o "$work/srjperf" .)
exec "$work/srjperf" --workdir "$work" "$@"
