#!/usr/bin/env bash
# Build the benchmark, then run every workload untraced and traced, each in
# a fresh process, and collect the result lines into one file that
# `compare` reads:
#
#   benchmark/run.sh                      # seed 1, benchmark/out/result.json
#   SEEDS="1 2 3" OUT=a.json benchmark/run.sh
#   cargo run --release --manifest-path benchmark/Cargo.toml -- compare a.json b.json
#
# SECONDS_PER_RUN defaults to run_seconds in BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=${SEEDS:-1}
OUT=${OUT:-benchmark/out/result.json}
SECONDS_PER_RUN=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
WORKLOADS="browse_read edit_commit history_read case_mixed"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/neptune-benchmark"

mkdir -p "$(dirname "$OUT")"
runs=()
failed=0
for seed in $SEEDS; do
  for trace in 0 1; do
    for workload in $WORKLOADS; do
      echo "== $workload seed $seed trace $trace" >&2
      if line=$("$bin" --workload "$workload" --seed "$seed" \
                       --seconds "$SECONDS_PER_RUN" --trace "$trace" | tail -n 1); then
        :
      else
        failed=1
      fi
      runs+=("{\"workload\": \"$workload\", \"seed\": $seed, \"trace\": $trace, \"result\": ${line:-null}}")
    done
  done
done

{
  printf '{"nproc": %s, "run_seconds": %s, "runs": [\n' "$(nproc)" "$SECONDS_PER_RUN"
  for i in "${!runs[@]}"; do
    printf '  %s' "${runs[$i]}"
    if [ "$i" -lt $((${#runs[@]} - 1)) ]; then printf ','; fi
    printf '\n'
  done
  printf ']}\n'
} > "$OUT"
echo "wrote $OUT" >&2
exit $failed
