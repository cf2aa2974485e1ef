#!/bin/sh
# End-to-end before/after rows for BENCH_e2e.json.
#
#   scripts/e2e_pairs.sh <base-rev> [workloads] [pairs]
#
# Runs benchmark/run.sh (untraced, end-to-end metrics, BENCHMARK.json's
# run_seconds per run) on a checkout of <base-rev> and on this checkout,
# in alternating pairs: pair k runs every workload on both sides with
# seed SEED0+k (SEED0 defaults to 1000), base first when k is even and
# change first when it is odd. workloads is a comma-separated list
# (default: every workload in BENCHMARK.json); pairs defaults to 10. The
# report lists, per workload and metric, both sides' median with its
# quartiles and how many pairs the change won, with the seeds and the
# order they ran in. A run that exits non-zero or whose last line is not
# a report with metrics stops the script. The base checkout is extracted
# to .bench_build/e2e-base. Needs git and jq.
set -eu
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
	echo "usage: scripts/e2e_pairs.sh <base-rev> [workloads] [pairs]" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$1
workloads=${2:-$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)}
pairs=${3:-10}
seed0=${SEED0:-1000}
secs=$(jq -e .run_seconds BENCHMARK.json)
base_dir=$root/.bench_build/e2e-base
base_commit=$(git rev-parse --verify "$base^{commit}")

rm -rf "$base_dir"
mkdir -p "$base_dir"
git archive "$base_commit" | tar -x -C "$base_dir"

rows=$root/.bench_build/e2e-rows.jsonl
: >"$rows"
run() { # side dir workload pair seed
	if ! report=$(cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$5" --seconds "$secs" --trace 0); then
		echo "e2e_pairs: $1 run of $3 (pair $4, seed $5) failed" >&2
		exit 1
	fi
	line=$(echo "$report" | tail -n 1)
	if [ -z "$line" ] || ! echo "$line" | jq -ec --arg side "$1" --arg w "$3" --argjson pair "$4" --argjson seed "$5" \
		'{side: $side, workload: $w, pair: $pair, seed: $seed, failed: .failed,
		  metrics: ((.metrics // error("no metrics")) | map_values(.value))}' >>"$rows"; then
		echo "e2e_pairs: $1 run of $3 (pair $4, seed $5) printed no report" >&2
		exit 1
	fi
	echo "pair $4 seed $5 $3 $1 done" >&2
}
k=0
while [ "$k" -lt "$pairs" ]; do
	seed=$((seed0 + k))
	for w in $(echo "$workloads" | tr ',' ' '); do
		if [ $((k % 2)) -eq 0 ]; then
			run base "$base_dir" "$w" "$k" "$seed"
			run change "$root" "$w" "$k" "$seed"
		else
			run change "$root" "$w" "$k" "$seed"
			run base "$base_dir" "$w" "$k" "$seed"
		fi
	done
	k=$((k + 1))
done

jq -s --slurpfile spec BENCHMARK.json \
	--arg base "$base_commit" --arg change "$(git rev-parse HEAD)$(git diff --quiet HEAD || echo '+worktree')" \
	--argjson seconds "$secs" '
	# Quantile p of a sorted array, interpolated linearly between ranks.
	def q($p): (($p * (length - 1)) | floor) as $i
		| if $i + 1 < length then .[$i] + ($p * (length - 1) - $i) * (.[$i + 1] - .[$i]) else .[$i] end;
	def summary: sort | {median: q(0.5), q1: q(0.25), q3: q(0.75), n: length};
	def side($s): map(select(.side == $s)) | INDEX(.pair | tostring);
	. as $rows
	| {base: $base, change: $change, seconds_per_run: $seconds,
	   workloads: ([$rows[].workload] | unique | map(. as $w
		| ($rows | map(select(.workload == $w))) as $r
		| ($r | side("base")) as $bs | ($r | side("change")) as $cs
		| {key: $w, value: {
			seeds: ($r | map(select(.side == "base")) | sort_by(.pair) | map(.seed)),
			order: ($r | map(.side)),
			failed: {base: ($r | map(select(.side == "base") | .failed) | add),
			         change: ($r | map(select(.side == "change") | .failed) | add)},
			metrics: ($spec[0].end_to_end | map(.name as $name | .better as $better
				# One {b, c} per pair both sides reported, matched by pair number.
				| [$bs | keys[] | select($cs[.] != null)
					| {b: $bs[.].metrics[$name], c: $cs[.].metrics[$name]}
					| select(.b != null and .c != null)] as $p
				| select($p | length > 0)
				| {key: $name, value: {
					unit: .unit, better: $better,
					base: ($p | map(.b) | summary), change: ($p | map(.c) | summary),
					pairs_won: ($p | map(select(if $better == "lower" then .c < .b else .c > .b end)) | length),
					pairs_tied: ($p | map(select(.c == .b)) | length)}})
				| from_entries)}}) | from_entries)}' "$rows" >BENCH_e2e.json
echo "wrote BENCH_e2e.json" >&2
