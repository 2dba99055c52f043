#!/usr/bin/env bash
# Paired in-process benchmark check of the working tree against a base commit.
#
#   scripts/benchpair.sh BASE_REF
#
# Builds test binaries of the root package from a git worktree of BASE_REF
# and from the working tree, runs PAIRS pairs of the ROWS benchmarks,
# flipping which side runs first every pair so that drift on the machine
# hits both sides alike, and judges the two outputs with cmd/benchdiff. The
# exit code is benchdiff's: 1 when a row is slower or allocates more in at
# least nine of ten pairs. A BASE_REF that does not resolve (the first push
# of a branch, a shallow clone) prints a note and exits 0.
set -euo pipefail

readonly PAIRS=10
readonly ROWS='^(BenchmarkDistance|BenchmarkPath|BenchmarkBatchedDistance|BenchmarkExecuteBatch|BenchmarkTreeBuild)$'

if [ $# -ne 1 ]; then
	echo "usage: scripts/benchpair.sh BASE_REF" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
if ! base=$(git rev-parse --verify --quiet "$1^{commit}"); then
	echo "benchpair: base ref '$1' does not resolve; skipping the paired benchmark check"
	exit 0
fi

work=$(mktemp -d)
cleanup() {
	git worktree remove --force "$work/base" >/dev/null 2>&1 || true
	rm -rf "$work"
	git worktree prune
}
trap cleanup EXIT

git worktree add --detach --quiet "$work/base" "$base"
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .
go build -o "$work/benchdiff" ./cmd/benchdiff

# Each binary runs from its own tree, as `go test` would run it.
run_side() {
	local dir=$1 side=$2
	(cd "$dir" && "$work/$side.test" -test.run '^$' -test.bench "$ROWS" \
		-test.benchtime 100x -test.benchmem -test.timeout 10m) >>"$work/$side.txt"
}
for ((i = 0; i < PAIRS; i++)); do
	if ((i % 2 == 0)); then
		run_side "$work/base" base
		run_side "$root" head
	else
		run_side "$root" head
		run_side "$work/base" base
	fi
done

echo "benchpair: base $base, head = working tree, $PAIRS pairs"
"$work/benchdiff" "$work/base.txt" "$work/head.txt"
