#!/usr/bin/env bash
# Builds tfsnd and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash tfsnbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#   bash tfsnbench/run.sh --selftest
#
# Everything it writes (Go build cache, binaries, generated inputs,
# traces) stays under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tfsnd || ! -f tfsnbench/go.mod ]] || ! grep -q '^module repro$' go.mod; then
	echo "tfsnbench: run from the root of a repository checkout (go.mod, cmd/tfsnd, tfsnbench)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go build -o "$out/bin/tfsnd" ./cmd/tfsnd
(cd tfsnbench && go build -o "$out/bin/tfsnbench" .)

if [[ -e .git ]] && commit=$(git rev-parse HEAD 2>/dev/null); then
	BENCH_COMMIT="$commit"
else
	BENCH_COMMIT="src-sha256:$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export BENCH_COMMIT

exec "$out/bin/tfsnbench" --tfsnd "$out/bin/tfsnd" --work "$out" "$@"
