#!/usr/bin/env bash
# Builds the trusted-path benchmark from the sources of this checkout
# and runs one workload. Run it from anywhere:
#
#   bash perfbench/run.sh --workload session-tcp --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root
# of the checkout. The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters

# Provenance: the commit when this is a git checkout, else a digest of
# the sources the benchmark builds.
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	if ! PERFBENCH_COMMIT="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null)"; then
		PERFBENCH_COMMIT="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -print |
			LC_ALL=C sort | xargs sha1sum | sha1sum | cut -c1-12)"
	fi
fi
export PERFBENCH_COMMIT

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --work "$out" "$@"
