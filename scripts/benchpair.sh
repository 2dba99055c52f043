#!/usr/bin/env bash
# Paired in-process benchmark check of the working tree against a base commit.
#
#   scripts/benchpair.sh BASE_REF
#
# Builds test binaries of the root package from a git worktree of BASE_REF
# and from the working tree, runs PAIRS pairs of the ROWS benchmarks,
# flipping which side runs first every pair so that drift on the machine
# hits both sides alike, and judges the two outputs with cmd/benchdiff.
#
# An unchanged row is flagged by chance now and then: it loses nine of ten
# pairs with probability 11/1024, and the round judges every row of ROWS.
# So the rows benchdiff flags (slower or allocs+) run again for PAIRS more
# pairs, judged on their own, and the script exits 1 only when a row is
# flagged in both rounds; a real regression is. Both tables are printed.
# Exit 2 is benchdiff's for an unreadable file. A BASE_REF that does not
# resolve (the first push of a branch, a shallow clone) prints a note and
# exits 0.
set -euo pipefail

readonly PAIRS=10
readonly ROWS='^(BenchmarkDistance|BenchmarkPath|BenchmarkBatchedDistance|BenchmarkExecuteBatch|BenchmarkTreeBuild|BenchmarkKNN|BenchmarkRange|BenchmarkObjectUpdate|BenchmarkLeafTableFirstUse)$'

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

# run_side DIR SIDE REGEX OUT: one run of the REGEX benchmarks from the
# SIDE binary, in its own tree as `go test` would run it, appended to OUT.
run_side() {
	local dir=$1 side=$2 rows=$3 out=$4
	(cd "$dir" && "$work/$side.test" -test.run '^$' -test.bench "$rows" \
		-test.benchtime 100x -test.benchmem -test.timeout 10m) >>"$out"
}
# pairs REGEX TAG: PAIRS order-alternated pairs into TAG.base and TAG.head.
pairs() {
	local rows=$1 tag=$2 i
	for ((i = 0; i < PAIRS; i++)); do
		if ((i % 2 == 0)); then
			run_side "$work/base" base "$rows" "$work/$tag.base"
			run_side "$root" head "$rows" "$work/$tag.head"
		else
			run_side "$root" head "$rows" "$work/$tag.head"
			run_side "$work/base" base "$rows" "$work/$tag.base"
		fi
	done
}

pairs "$ROWS" first
echo "benchpair: base $base, head = working tree, $PAIRS pairs"
status=0
"$work/benchdiff" "$work/first.base" "$work/first.head" | tee "$work/first.txt" || status=$?
if ((status != 1)); then
	exit "$status"
fi

# The flagged rows are the table lines whose verdict, the last column, is
# slower or allocs+. Their top-level benchmarks run again (a Go identifier
# holds no '-', so the name before the first '/' less any -GOMAXPROCS
# suffix), and only the flagged rows are kept for the second judgement.
awk '$NF == "slower" || $NF == "allocs+" { print $1 }' "$work/first.txt" >"$work/flagged"
tops=$(sed -E -e 's|/.*||' -e 's|-[0-9]+$||' "$work/flagged" | sort -u | paste -sd '|' -)
pairs "^($tops)\$" second
for side in base head; do
	awk 'NR == FNR { want[$1]; next } $1 in want' "$work/flagged" "$work/second.$side" >"$work/again.$side"
done
echo
echo "benchpair: rerunning the $(wc -l <"$work/flagged") flagged row(s) for $PAIRS more pairs; a row fails only when flagged again"
"$work/benchdiff" "$work/again.base" "$work/again.head"
