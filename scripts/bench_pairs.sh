#!/usr/bin/env bash
# bench_pairs.sh <parent-rev> <workload> <pairs> [seed]
#
# Builds the bench binary of <parent-rev> (from `git archive`, so nothing
# is registered in the repository) and of the working tree, then runs
# them in <pairs> alternating pairs, the first side swapped every pair.
# For every end-to-end metric of the runs (each is better lower) it prints
# the parent's and the change's median and quartiles and the pairs the
# change won, in BENCH_history.jsonl's field names, then the hashes and
# the failed count each side printed. It exits 1 after printing when the
# two sides' hash sets differ or any run reports a failed operation.
# Needs go and jq; every run goes to a temporary directory.
#
#   scripts/bench_pairs.sh HEAD~1 fleet-serverless-storm 10
#   scripts/bench_pairs.sh HEAD~1 paper-pipeline 5 7
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-rev> <workload> <pairs> [seed]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=${4:-42}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
(cd "$work/parent" && go build -o "$work/bench-parent" ./bench)
(cd "$root" && go build -o "$work/bench-change" ./bench)

run() { # run <side>: one bench run, its result line appended to <side>.json
	(cd "$work" && "./bench-$1" -workload "$workload" -seed "$seed" >"$work/out" 2>&1) || true
	tail -n 1 "$work/out" >>"$work/$1.json"
	grep -o 'hash [0-9a-f]*' "$work/out" | sort -u >>"$work/$1.hashes" || true
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then run parent; run change; else run change; run parent; fi
done

stats() { # stats <side> <metric>: median and linearly interpolated quartiles
	jq -r --arg m "$2" '.metrics[$m].value' "$work/$1.json" | sort -g | awk -v s="$1" '{ v[NR] = $1 }
	function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
	END { printf "\"%s_median\": %.4f, \"%s_q1\": %.4f, \"%s_q3\": %.4f", s, q(0.5), s, q(0.25), s, q(0.75) }'
}
for m in $(jq -r '.metrics | keys[]' "$work/parent.json" | sort -u); do
	won=$(paste <(jq -r --arg m "$m" '.metrics[$m].value' "$work/parent.json") \
		<(jq -r --arg m "$m" '.metrics[$m].value' "$work/change.json") | awk '$2 < $1 { w++ } END { print w + 0 }')
	echo "{\"metric\": \"$m\", $(stats parent "$m"), $(stats change "$m"), \"pairs_won\": $won, \"pairs\": $pairs}"
done
status=0
for side in parent change; do
	failed=$(jq -s 'map(.failed) | add' "$work/$side.json")
	echo "$side: $(sort -u "$work/$side.hashes" | tr '\n' ' ')failed $failed"
	if [ "$failed" != 0 ]; then
		echo "$side: $failed failed operations" >&2
		status=1
	fi
done
if ! cmp -s <(sort -u "$work/parent.hashes") <(sort -u "$work/change.hashes"); then
	echo "the two sides printed different hashes" >&2
	status=1
fi
exit $status
