#!/usr/bin/env bash
# Paired A/B runs of the benchmark spine, from the repository root:
#
#   tools/bench-ab.sh <refA> <refB> --workload W [--pairs N] [--seed S]
#
# Each ref is anything `git archive` takes (a commit, a tag, HEAD~1), or
# `.` for the working tree as it stands, uncommitted files included. Both
# are unpacked under .bench_build/ab/{A,B} — plain copies, nothing is
# registered in .git — and `benchmark/run.sh` is run from each copy's
# root, so each side builds and runs its own benchmark source exactly as
# the driver would. Pairs alternate which side goes first. The last line
# of every run lands in .bench_build/ab/{A,B}.jsonl and tools/benchab
# prints, per end-to-end metric, both medians, their ratio, A's quartile
# distance and the sign count.
set -euo pipefail

usage() {
	sed -n '2,5p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
	exit 2
}

[ $# -ge 2 ] || usage
refA=$1 refB=$2
shift 2
workload= pairs=10 seed=1
while [ $# -gt 0 ]; do
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seed) seed=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$workload" ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
ab="$root/.bench_build/ab"
mkdir -p "$ab"

# unpack <ref> <dir>: a fresh copy of the ref's files. The copy's own
# .bench_build (run.sh's Go build cache) survives from the last time, or
# every invocation would compile the standard library twice.
unpack() {
	mkdir -p "$2"
	find "$2" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
	if [ "$1" = . ]; then
		git ls-files -z --cached --others --exclude-standard |
			while IFS= read -r -d '' f; do
				if [ -e "$f" ]; then printf '%s\0' "$f"; fi
			done | tar --null -T - -cf - | tar -xf - -C "$2"
	else
		git archive "$1" | tar -xf - -C "$2"
	fi
}

# run_side <A|B>: one run from that side's copy, its last line kept.
run_side() {
	(cd "$ab/$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0) |
		tail -n 1 >>"$ab/$1.jsonl"
}

unpack "$refA" "$ab/A"
unpack "$refB" "$ab/B"
: >"$ab/A.jsonl"
: >"$ab/B.jsonl"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
	for side in $order; do
		echo "pair $i/$pairs: $side" >&2
		run_side "$side"
	done
done

echo "A = $refA, B = $refB, workload $workload, seed $seed, $pairs pairs"
go run ./tools/benchab -spec BENCHMARK.json "$ab/A.jsonl" "$ab/B.jsonl"
