#!/usr/bin/env bash
# Paired, alternating runs of the repo benchmark: a parent revision against
# the working tree, on one workload, untraced.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs]     # pairs: 10
#
# Builds benchmark/ twice, offline: the parent from a `git archive` export
# of <parent-rev> (no worktree is registered), the child from this tree.
# Each pair runs both builds on one fresh seed, alternating which goes
# first. Prints, per end-to-end metric, the median [q1-q3] of each side
# and the pairs the child won (every end-to-end metric is lower-better).
# A run that exits non-zero stops the script with that run's stderr tail.
# WORK (default: a fresh temp dir) keeps the exports, builds and raw
# results; point it at one directory to reuse builds across calls.
# SECONDS_PER_RUN defaults to run_seconds in BENCHMARK.json; SEED0 picks
# the first seed (default: from the clock).
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,17p' "$0" >&2; exit 2; }
parent=$1 workload=$2 pairs=${3:-10}
cd "$(dirname "$0")/.."
WORK=${WORK:-$(mktemp -d)}
mkdir -p "$WORK" && WORK=$(cd "$WORK" && pwd)
SECONDS_PER_RUN=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
SEED0=${SEED0:-$(($(date +%s) % 100000))}

rev=$(git rev-parse --verify "$parent^{commit}")
src="$WORK/src-$rev"
if [ ! -d "$src" ]; then
  mkdir -p "$src.tmp" && git archive "$rev" | tar -x -C "$src.tmp" && mv "$src.tmp" "$src"
fi
build() { # <manifest> <target-dir>
  cargo build -q --release --offline --manifest-path "$1" --target-dir "$2" ||
    { echo "bench_pairs: build of $1 failed" >&2; exit 1; }
}
build "$src/benchmark/Cargo.toml" "$WORK/target-$rev"
build benchmark/Cargo.toml "$WORK/target-child"
parent_bin="$WORK/target-$rev/release/neptune-benchmark"
child_bin="$WORK/target-child/release/neptune-benchmark"

results="$WORK/pairs-$workload.txt"
: >"$results"
run() { # <side> <binary> <seed>
  if ! "$2" --workload "$workload" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 \
    >"$WORK/run.out" 2>"$WORK/run.err"; then
    echo "bench_pairs: $1 run of $workload, seed $3, exited non-zero; stderr tail:" >&2
    tail -n 25 "$WORK/run.err" >&2
    exit 1
  fi
  tail -n 1 "$WORK/run.out" | grep -o '"[a-z0-9_]*": {"value": [-0-9.e+]*' |
    sed "s/^\"\([a-z0-9_]*\)\": {\"value\": /$1 $3 \1 /" >>"$results"
}
for i in $(seq 1 "$pairs"); do
  seed=$((SEED0 + i))
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent_bin" "$seed"; run child "$child_bin" "$seed"
  else
    run child "$child_bin" "$seed"; run parent "$parent_bin" "$seed"
  fi
  echo "pair $i/$pairs done (seed $seed)" >&2
done

echo "$workload: $pairs pairs, parent $rev vs working tree (raw: $results)"
awk '
function sorted(side, m,   n, i, j, t) {
  n = 0
  for (i = 1; i <= npairs; i++) if ((side, m, seeds[i]) in v) s[++n] = v[side, m, seeds[i]]
  for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
  return n
}
function q(n, p,   pos, lo) { pos = 1 + p * (n - 1); lo = int(pos); return s[lo] + (pos - lo) * (s[lo + 1 < n ? lo + 1 : n] - s[lo]) }
function summary(side, m,   n) { n = sorted(side, m); return sprintf("%.6g [%.6g-%.6g]", q(n, .5), q(n, .25), q(n, .75)) }
{ v[$1, $3, $2] = $4; if (!($2 in seen)) { seen[$2] = 1; seeds[++npairs] = $2 } if (!($3 in known)) { known[$3] = 1; metrics[++nm] = $3 } }
END {
  printf "%-27s %-30s %-30s %s\n", "metric", "parent median [q1-q3]", "child median [q1-q3]", "child wins"
  for (k = 1; k <= nm; k++) {
    m = metrics[k]; wins = 0; ties = 0
    for (i = 1; i <= npairs; i++) {
      if (v["child", m, seeds[i]] < v["parent", m, seeds[i]]) wins++
      else if (v["child", m, seeds[i]] == v["parent", m, seeds[i]]) ties++
    }
    printf "%-27s %-30s %-30s %d/%d (%d tied)\n", m, summary("parent", m), summary("child", m), wins, npairs, ties
  }
}' "$results"
