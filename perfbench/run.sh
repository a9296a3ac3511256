#!/usr/bin/env bash
# Builds the perfbench command from source and runs one workload.
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the run writes (Go build
# cache, binary, prepared models, traces) stays under .bench_build/ in
# the current directory. The last line of standard output is the JSON
# result; everything else is a human-readable report.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
state="$root/.bench_build/perfbench"
mkdir -p "$state"

export GOCACHE="$state/gocache"
export GOPATH="$state/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=mod
export GOENV=off

# Digest of the sources the binary is built from: the checkout is not
# necessarily a git repository, so this stands in for a commit id.
digest=$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name 'go.mod' \) -print \
	| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || true)

(cd "$here" && go build -trimpath -o "$state/perfbench" .) >&2
exec "$state/perfbench" -state "$state" -source "$digest" -commit "$commit" "$@"
