#!/usr/bin/env bash
# Builds the benchmark and the cheetahd daemon it drives from the
# checkout's sources, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload sweep|replay|gateway --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. Everything it builds or writes
# stays under .bench_build/ in that checkout (Go build cache included).
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d internal || ! -d cmd/cheetahd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: not at the root of a repository checkout (need go.mod, internal/, cmd/cheetahd/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The go command's per-user files (telemetry counters, env file) go
# under the build directory too.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

go build -o "$build/bin/cheetahd" ./cmd/cheetahd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

commit=unknown
if [[ -e .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" -commit "$commit" "$@"
