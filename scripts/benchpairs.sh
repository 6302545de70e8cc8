#!/usr/bin/env bash
# Paired A/B benchmark of a base ref against the working tree.
#
#   bash scripts/benchpairs.sh [-r REF] [-n PAIRS] [-w WORKLOAD] [-s SEED] [-- RUN_ARGS...]
#
#   -r REF       base revision (default HEAD, i.e. the working tree's parent)
#   -n PAIRS     number of (base, change) pairs (default 10)
#   -w WORKLOAD  perfbench workload (default box-default)
#   -s SEED      seed of the first pair; pair i uses SEED+i on both sides
#                (default 1)
#   RUN_ARGS     passed to perfbench/run.sh after --workload and --seed
#                (default: --seconds 30 --trace 0)
#
# The base ref is exported with `git archive` into a temporary directory
# (removed on exit), so both sides build from their own sources exactly as
# perfbench/run.sh does in a fresh checkout. Each pair runs the two sides
# back to back, alternating which side runs first, with the same seed. For
# every metric the runs print, the summary gives each side's median and
# quartiles (the exclusive method perfbench uses) and how many pairs the
# change won, by the metric's direction in BENCHMARK.json. A run that is
# not correct, or that reports failed jobs, is listed and fails the script.
#
# Run it from anywhere in the repository; it takes PAIRS x 2 benchmark runs
# plus one cold build per side, so it is kept out of CI. Per-run JSON lines
# are kept in $BENCHPAIRS_OUT (default: a directory under .bench_build/).
set -euo pipefail

ref=HEAD pairs=10 workload=box-default seed=1
while getopts "r:n:w:s:" opt; do
	case $opt in
	r) ref=$OPTARG ;;
	n) pairs=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seed=$OPTARG ;;
	*) sed -n '2,13p' "$0" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
run_args=("$@")
if [ ${#run_args[@]} -eq 0 ]; then
	run_args=(--seconds 30 --trace 0)
fi

root=$(git rev-parse --show-toplevel)
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git -C "$root" archive "$ref" | tar -x -C "$base"

out=${BENCHPAIRS_OUT:-$root/.bench_build/pairs-$workload-$(date +%s)}
mkdir -p "$out"
echo "base $(git -C "$root" rev-parse --short "$ref") vs working tree; $workload, $pairs pairs, args: ${run_args[*]}; runs in $out" >&2

# run SIDE DIR SEED appends the run's final JSON line to $out/SIDE.jsonl.
run() {
	local line
	line=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" "${run_args[@]}" | tail -n 1)
	echo "$line" >>"$out/$1.jsonl"
	echo "  $1 seed $3: $line" >&2
}

for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	if ((i % 2 == 0)); then
		run base "$base" "$s"
		run change "$root" "$s"
	else
		run change "$root" "$s"
		run base "$base" "$s"
	fi
done

# Summarize: metric directions come from BENCHMARK.json; each JSON line is
# flattened to "name value" pairs by splitting on the metric objects.
awk -v benchmark="$root/BENCHMARK.json" '
function quart(v, n, i,   m, j, d) {
	m = n + 1
	j = int(i * m / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	d = i * m - j * 4
	return (v[j] * (4 - d) + v[j + 1] * d) / 4
}
function sortn(v, n,   i, j, t) {
	for (i = 2; i <= n; i++) {
		t = v[i]
		for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
		v[j + 1] = t
	}
}
function stats(side, name,   v, i, n) {
	n = cnt[side, name]
	for (i = 1; i <= n; i++) v[i] = val[side, name, i]
	sortn(v, n)
	if (n < 2) return sprintf("%.4g", v[1])
	return sprintf("%.4g [%.4g, %.4g]", quart(v, n, 2), quart(v, n, 1), quart(v, n, 3))
}
BEGIN {
	while ((getline l < benchmark) > 0) {
		if (match(l, /"name": *"[^"]*"/)) {
			cur = substr(l, RSTART, RLENGTH); sub(/"name": *"/, "", cur); sub(/"$/, "", cur)
		}
		if (match(l, /"better": *"[a-z]*"/)) {
			b = substr(l, RSTART, RLENGTH); sub(/"better": *"/, "", b); sub(/"$/, "", b)
			better[cur] = b
		}
	}
}
{
	side = FILENAME; sub(/.*\//, "", side); sub(/\.jsonl$/, "", side)
	run = ++runs[side]
	if ($0 !~ /"correct": *true/ || $0 !~ /"failed": *0[,}]/) bad = bad "\n  " side " run " run ": " $0
	n = split($0, parts, /\},?"/)
	for (k = 1; k <= n; k++) {
		if (!match(parts[k], /[a-z_.0-9]+":\{"value":[-+0-9.eE]+/)) continue
		s = substr(parts[k], RSTART, RLENGTH)
		name = s; sub(/":.*/, "", name)
		v = s; sub(/.*"value":/, "", v)
		if (!(name in seen)) { seen[name] = 1; order[++nm] = name }
		val[side, name, ++cnt[side, name]] = v + 0
	}
}
END {
	printf "| metric | better | base median [Q1, Q3] | change median [Q1, Q3] | change wins |\n"
	printf "|---|---|---|---|---|\n"
	for (k = 1; k <= nm; k++) {
		name = order[k]; dir = (name in better) ? better[name] : "?"
		wins = 0; pairs = cnt["change", name] < cnt["base", name] ? cnt["change", name] : cnt["base", name]
		for (i = 1; i <= pairs; i++) {
			if ((dir == "lower" && val["change", name, i] < val["base", name, i]) ||
			    (dir == "higher" && val["change", name, i] > val["base", name, i])) wins++
		}
		printf "| %s | %s | %s | %s | %d/%d |\n", name, dir, stats("base", name), stats("change", name), wins, pairs
	}
	if (bad != "") { printf "runs not correct or with failed jobs:%s\n", bad; exit 1 }
}' "$out/base.jsonl" "$out/change.jsonl"
