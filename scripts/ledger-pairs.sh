#!/usr/bin/env bash
# Paired ledger runs: a base revision against the working tree.
#
#   scripts/ledger-pairs.sh BASE_REV WORKLOAD N
#
# Puts `git archive BASE_REV` into target/ledger-base/, builds the frozen
# ledger (benchmark/) in that copy and in the working tree, and runs N
# untraced seed-1 pairs of WORKLOAD at the benchmark's run length,
# alternating which side runs first (the base in odd pairs). It prints
# every run's `correct` and `failed`, then, for each end-to-end metric of
# BENCHMARK.json, the base's and the working tree's medians, the base's
# interquartile range, their ratio (working tree / base) and the number
# of pairs the working tree won. Every run's result line is kept in
# target/ledger-pairs/WORKLOAD.{base,work}.jsonl. The environment reaches
# both sides alike, so `MALLOC_TRIM_THRESHOLD_=1073741824
# scripts/ledger-pairs.sh …` is the trim-insensitive control for
# `recover_s`.
#
# Building the ledger makes cargo prune benchmark/Cargo.lock; the frozen
# lock is put back byte for byte however the script ends, and the script
# then fails if anything under benchmark/ or BENCHMARK.json differs from
# the index, as tier1.sh does. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 3 || ! $3 =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: scripts/ledger-pairs.sh BASE_REV WORKLOAD N" >&2
  exit 2
fi
base_rev=$1 workload=$2 pairs=$3
root=$PWD
base=$root/target/ledger-base
# Outside the extracted copy, so that a re-run against the same revision
# (whose files keep their commit times) reuses the build.
base_target=$root/target/ledger-base-build
out=$root/target/ledger-pairs
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

frozen_lock=$(mktemp)
cp benchmark/Cargo.lock "$frozen_lock"
trap 'cp "$frozen_lock" benchmark/Cargo.lock; rm -f "$frozen_lock"' EXIT

rm -rf "$base"
mkdir -p "$base" "$out"
git archive "$base_rev" | tar -x -C "$base"
cargo build --release --offline --quiet --manifest-path "$base/benchmark/Cargo.toml" \
  --target-dir "$base_target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cp "$frozen_lock" benchmark/Cargo.lock
git diff --exit-code -- benchmark BENCHMARK.json

# `run SIDE`: one run of the ledger from its own checkout root (it reads
# benchmark/golden/ relative to the working directory); appends the
# result line to that side's file and prints its verdict.
run() {
  local side=$1 dir bin line
  if [[ $side == base ]]; then
    dir=$base bin=$base_target/release/darnet-ledger
  else
    dir=$root bin=$root/benchmark/target/release/darnet-ledger
  fi
  line=$(cd "$dir" && "$bin" --workload "$workload" --seed 1 --trace 0 \
    --seconds "$seconds" | tail -n 1)
  jq -c . <<<"$line" >>"$out/$workload.$side.jsonl"
  jq -r --arg side "$side" '"  \($side): correct \(.correct), failed \(.failed)"' <<<"$line"
}

rm -f "$out/$workload.base.jsonl" "$out/$workload.work.jsonl"
for ((pair = 1; pair <= pairs; pair++)); do
  echo "pair $pair/$pairs ($workload, ${seconds} s)"
  if ((pair % 2)); then
    run base
    run work
  else
    run work
    run base
  fi
done

echo
jq -rn --slurpfile base "$out/$workload.base.jsonl" \
  --slurpfile work "$out/$workload.work.jsonl" \
  --slurpfile bench BENCHMARK.json '
  # Linear-interpolated quantile of a sorted array.
  def quantile($p): ((length - 1) * $p) as $i | ($i | floor) as $lo | ($i | ceil) as $hi
    | .[$lo] + (.[$hi] - .[$lo]) * ($i - $lo);
  def readings($runs; $m): [$runs[] | .metrics[$m].value];
  ["metric", "base_median", "work_median", "base_iqr", "ratio", "work_won"],
  ($bench[0].end_to_end[] | .name as $m | .better as $better
    | readings($base; $m) as $b | readings($work; $m) as $w
    | ($b | sort) as $bs | ($w | sort) as $ws
    | ($bs | quantile(0.5)) as $bmed | ($ws | quantile(0.5)) as $wmed
    | [range($b | length)
       | select(if $better == "lower" then $w[.] < $b[.] else $w[.] > $b[.] end)] as $won
    | [$m, $bmed, $wmed, ($bs | quantile(0.75)) - ($bs | quantile(0.25)),
       (if $bmed == 0 then "-" else $wmed / $bmed end), "\($won | length)/\($b | length)"])
  | @tsv' | awk -F'\t' '
  function num(x) { return x ~ /^-?[0-9.e+-]+$/ ? sprintf("%.6g", x) : x }
  { printf "%-22s %14s %14s %12s %9s %9s\n", $1, num($2), num($3), num($4), num($5), $6 }'
