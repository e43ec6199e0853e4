#!/bin/sh
# bench_check.sh — the performance-regression gate: a same-host A/B of the
# working tree against the newest landing commit, on the benchmark that
# BENCHMARK.json declares.
#
# The base is the newest commit whose subject matches '^PR [0-9]+:'. It is
# checked out with git worktree under the gitignored .bench_build/, and
# each tree's own perfbench/run.sh runs every BENCHMARK.json workload
# five times per side, seed 1, for run_seconds each, in alternating order
# (AB BA AB ...) so host drift lands on both sides alike. For every
# end-to-end metric the gate prints each side's median and quartiles, and
# fails when
#
#   - the tree's median is worse than the base's by more than the
#     metric's BENCHMARK.json bound;
#   - any run reports correct: false or no result at all, or the tree's
#     failed share of operations is larger than the base's;
#   - the base's own spread (IQR/median) is wider than the bound: the host
#     is too noisy to tell, and the gate says "inconclusive" and fails.
#
# It needs git and jq, and takes about 15 min on a 2-core host.
#
#   SKIP_BENCH=1   skip the gate entirely (callers, e.g. check.sh)
set -eu

cd "$(dirname "$0")/.."

runs=5

die() {
	echo "bench_check: $*" >&2
	exit 1
}

git rev-parse --is-inside-work-tree >/dev/null 2>&1 ||
	die "not a git checkout: the base is taken from git history"
command -v jq >/dev/null 2>&1 || die "jq not found: it reads BENCHMARK.json and the results"
base=$(git log --format='%H%x09%s' | awk -F'\t' '$2 ~ /^PR [0-9]+:/ { print $1; exit }')
[ -n "$base" ] || die "no landing commit (subject 'PR <n>: ...') in this checkout's history"

out=.bench_build/bench_check
wt=.bench_build/base
cleanup() {
	git worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"
	git worktree prune
}
cleanup
trap cleanup EXIT
trap 'exit 130' INT TERM
rm -rf "$out"
mkdir -p "$out"
git worktree add --quiet --detach "$wt" "$base"

seconds=$(jq -r '.run_seconds' BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
echo "bench_check: base $(git log -1 --format='%h %s' "$base")"
echo "bench_check: tree $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"
echo "bench_check: $runs runs per side per workload, seed 1, ${seconds}s each, order AB BA AB ..."

# run SIDE DIR WORKLOAD N appends the run's result line to $out/SIDE-WORKLOAD.jsonl,
# or a correct: false stand-in when the run printed no result line.
run() {
	log=$out/$1-$3-$4.log
	echo "bench_check: $3 run $4/$runs: $1"
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed 1 --seconds "$seconds" --trace 0) \
		>"$log" 2>&1 || true
	line=$(grep '^{' "$log" | tail -1 || true)
	if [ -z "$line" ] || ! echo "$line" | jq -e '.correct | type == "boolean"' >/dev/null 2>&1; then
		echo "bench_check: $3 run $4 on $1 gave no result line; see $log" >&2
		line='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
	fi
	echo "$line" >>"$out/$1-$3.jsonl"
}

for wl in $workloads; do
	i=1
	while [ "$i" -le "$runs" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$wt" "$wl" "$i"
			run tree . "$wl" "$i"
		else
			run tree . "$wl" "$i"
			run base "$wt" "$wl" "$i"
		fi
		i=$((i + 1))
	done
done

# The verdict: one table row per workload and end-to-end metric, then one
# line per failure. Quartiles interpolate linearly between order
# statistics; a relative change against a zero base is infinite unless
# both are zero.
report=$out/report.txt
for wl in $workloads; do
	jq -n -r --arg wl "$wl" \
		--slurpfile spec BENCHMARK.json \
		--slurpfile a "$out/base-$wl.jsonl" \
		--slurpfile b "$out/tree-$wl.jsonl" '
	def q(p): sort as $s | ($s | length) as $n
		| if $n == 0 then null else
			(($n - 1) * p) as $h | ($h | floor) as $lo | ([$lo + 1, $n - 1] | min) as $hi
			| $s[$lo] + ($h - $lo) * ($s[$hi] - $s[$lo]) end;
	def rel($x; $base): if $base == 0 then (if $x == 0 then 0 else infinite end) else $x / $base end;
	def share: (map(.failed) | add) / ([(map(.attempted) | add), 1] | max);
	def pct: if . == infinite then "inf" else (. * 1000 | round / 10 | tostring) + "%" end;
	def num: if . == null then "-" else (. * 1000000 | round / 1000000 | tostring) end;
	(($a | map(select(.correct | not)) | length) as $ba
	| ($b | map(select(.correct | not)) | length) as $bb
	| if $ba + $bb > 0 then "FAIL \($wl): \($ba) base and \($bb) tree runs reported correct: false" else empty end),
	(if ($b | share) > ($a | share)
		then "FAIL \($wl): failed share \($b | share | pct) on the tree, \($a | share | pct) on the base" else empty end),
	($spec[0].end_to_end[] as $m
	| ($a | map(.metrics[$m.name].value // empty)) as $av
	| ($b | map(.metrics[$m.name].value // empty)) as $bv
	| ($av | q(0.5)) as $am | ($bv | q(0.5)) as $bm
	| "row \($wl) \($m.name) \($m.unit) \($av | q(0.25) | num) \($am | num) \($av | q(0.75) | num) \($bv | q(0.25) | num) \($bm | num) \($bv | q(0.75) | num)",
	(if $am == null or $bm == null then "FAIL \($wl) \($m.name): not measured on every side"
	else
		(rel(($av | q(0.75)) - ($av | q(0.25)); $am)) as $spread
		| (if $m.better == "higher" then rel($am - $bm; $am) else rel($bm - $am; $am) end) as $worse
		| (if $worse > $m.bound then "FAIL \($wl) \($m.name): tree median \($bm | num) \($m.unit) is \($worse | pct) worse than base \($am | num) \($m.unit) (bound \($m.bound | pct))" else empty end),
		(if $spread > $m.bound then "INCONCLUSIVE \($wl) \($m.name): base IQR/median \($spread | pct) is wider than the \($m.bound | pct) bound" else empty end)
	end))'
done >"$report"

printf '%-8s %-14s %-5s  %36s  %36s\n' workload metric unit 'base q1 / median / q3' 'tree q1 / median / q3'
awk '$1 == "row" { printf "%-8s %-14s %-5s  %10s %12s %12s  %10s %12s %12s\n", $2, $3, $4, $5, $6, $7, $8, $9, $10 }' "$report"
fails=$(grep -c '^FAIL' "$report" || true)
unsure=$(grep -c '^INCONCLUSIVE' "$report" || true)
grep -v '^row' "$report" | sed 's/^/bench_check: /' || true
if [ "$fails" -gt 0 ]; then
	die "FAIL: $fails regression(s) or failed check(s) against $(git rev-parse --short "$base")"
fi
if [ "$unsure" -gt 0 ]; then
	die "inconclusive: the base's own spread is wider than the bound on $unsure metric(s); rerun on a quieter host"
fi
echo "bench_check: pass: no end-to-end metric worse than its bound against $(git rev-parse --short "$base")"
