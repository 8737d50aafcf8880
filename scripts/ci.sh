#!/usr/bin/env bash
# Full CI pipeline, runnable offline on any checkout:
#
#   1. tier1     — lockfile freshness, no external package but the
#                  vendored bytes and proptest, fmt --check, release build,
#                  workspace tests, check --all-targets of the workspace
#                  and of the frozen ledger package (benchmark/, so an
#                  API deletion that breaks it fails here and not in
#                  step 6), clippy -D warnings with the clippy.toml
#                  bans (wall clock, thread::spawn, std::fs, the seeded
#                  PRNG, HashMap/HashSet; forbidden outright in
#                  darnet-pure, the effect-free crate replay runs on) +
#                  escalated panic lints, every DESIGN.md §n the
#                  code cites must name a heading and every ROADMAP
#                  item an item, the token `unsafe` may appear only
#                  in darnet-tensor's AVX2 dispatch module and the bench
#                  crate's counting allocator, and no `target_feature`
#                  under crates/ may enable `fma` (scripts/tier1.sh).
#                  No other step lints the tree. The zero-alloc gate is
#                  crates/bench/tests/zero_alloc.rs, the crate
#                  boundary crates/pure/tests/boundary.rs, and every
#                  count a seed fixes (the chaos session's acked, lost
#                  and WAL counts, the 10 000-agent fleet's readings,
#                  acks and TSDB digest: crates/collect/tests/golden.rs;
#                  the multiview evaluation split: darnet-core's
#                  experiment tests) among the workspace tests
#   2. docs      — rustdoc must build cleanly (missing_docs is denied
#                  in the crates, so this catches broken intra-doc
#                  links and malformed examples)
#   3. parallel  — the batching and stream fan-out benchmark in --fast
#                  mode, compared against the committed
#                  BENCH_parallel.json baseline; any speedup_* ratio
#                  more than 15% below baseline fails the build.
#                  speedup_engine_batch32 must read >= 0.85 (--check).
#                  speedup_engine_streams — the registry engine's
#                  streams forced inline vs the schedule a default
#                  engine picks for itself (one group per hardware
#                  thread, the caller running one) — must read >= 0.85
#                  when the run has >= 2 hardware threads, and is left
#                  out of the comparison while this run or the baseline
#                  reports 1 (the committed one reports 2). These two
#                  engine ratios are the only
#                  engine timing gated in CI; absolute engine and kernel
#                  time is the ledger's to report, and the zero-alloc
#                  contract is tier1's (zero_alloc.rs)
#   4. chaos     — the crash-recovery timing harness in --fast mode,
#                  compared against the committed BENCH_chaos.json
#                  baseline: replaying the WAL of a seeded session torn
#                  by two controller kills must stay within its time
#                  budget and beat re-collecting the session by the
#                  floor (--check), and speedup_recovery_vs_rerun must
#                  stay within 15% of baseline. It gates clock readings
#                  only; the session's seeded counts are tier1's
#   5. repro     — one `repro all --fast --check` run (Tables 1–3,
#                  Figs 4–5, the six ablations; each shared model trained
#                  once):
#                  its stdout splits on the `### repro <section>` marker
#                  lines, each part's sha256 must equal its line in the
#                  committed REPRO_fast.sha256, and the run's sections
#                  must be exactly that file's keys — paper fidelity
#                  held byte for byte (~100 s, mostly table3 and its
#                  teacher). Like the golden files, the digests assume
#                  glibc's exp, ln and cos (tanh is in-repo, step 7).
#                  Under --check each section holds its own criteria
#                  and the run fails on a miss: ablation_multiview's
#                  seeded fault campaign must knock the front camera
#                  out, and the 3-stream engine under that loss must
#                  score at least the 2-stream engine under it and 85%
#                  of the clean 2-stream engine.
#                  Each section's wall time (the driver's stderr) is
#                  printed and written to target/ci/repro_times.txt
#                  (`section seconds` lines); no time is gated
#   6. ledger    — the frozen pipeline ledger (benchmark/, BENCHMARK.json;
#                  a package of its own that step 1 only type-checks)
#                  against this checkout's crates: its unit tests, then
#                  an untraced seed-1 run of each workload, which must
#                  end in a result line with "correct": true and
#                  "failed": 0 — every label present, no acked batch
#                  lost and no digest changed across recovery, the
#                  bitwise shadow pass and the golden posteriors intact —
#                  and whose seeded wire_bytes_per_label and state_mb
#                  must equal its line in the committed LEDGER_smoke.txt.
#                  benchmark/Cargo.lock is put back byte for byte after
#                  the cargo calls prune it, and any uncommitted edit
#                  under benchmark/ or to BENCHMARK.json fails the step.
#                  No timing gate: the timings are the driver's to judge
#   7. exhaustive — darnet_nn's tanh port over all 2^32 inputs in release
#                  (~110 s): the FNV-1a digest of its bits must equal the
#                  one recorded from glibc's tanhf (the #[ignore]d
#                  tanh_all_inputs_reproduce_libm). The same pass runs
#                  the AVX2 build of an 8-lane tanh, the gate loop's,
#                  to the same digest (on a CPU without AVX2 it prints
#                  that it skipped). It pins bits, not a
#                  libm, so it holds on any host; the comparison with the
#                  host's own libm (tanh_equals_host_libm_on_all_inputs)
#                  stays a by-hand check
#
# Usage:
#   scripts/ci.sh                 run every step
#   scripts/ci.sh --only chaos    run one step (repeatable: --only a --only b)
#   scripts/ci.sh --list          list step names and exit
#
# Every step is timed and a per-step elapsed summary is printed at the
# end, so the 7-step pipeline can be profiled and iterated on locally
# without grepping logs. The last thing printed is scripts/loc.sh's
# non-test line count per crate — the number every simplicity PR quotes.
#
# The workspace vendors every dependency, so the whole pipeline runs with
# the network off; CARGO_NET_OFFLINE makes cargo fail fast if anything
# ever tries to reach out.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

STEPS=(tier1 docs parallel chaos repro ledger exhaustive)
ONLY=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --only)
      [[ $# -ge 2 ]] || { echo "error: --only needs a step name" >&2; exit 2; }
      ONLY+=("$2")
      shift 2
      ;;
    --list)
      printf '%s\n' "${STEPS[@]}"
      exit 0
      ;;
    *)
      echo "error: unknown argument '$1' (try --list)" >&2
      exit 2
      ;;
  esac
done
for name in ${ONLY[@]+"${ONLY[@]}"}; do
  case " ${STEPS[*]} " in
    *" $name "*) ;;
    *) echo "error: unknown step '$name' (try --list)" >&2; exit 2 ;;
  esac
done

step_tier1() {
  scripts/tier1.sh
}

step_docs() {
  cargo doc --workspace --no-deps --locked --quiet
}

# Shared shape of the two gated benchmarks, both wall-clock readings:
# --fast smoke, JSON artifact under target/ci/, regression compare
# against the committed baseline, and the bench's own floors and budgets.
run_bench() {
  local bin="$1"
  local baseline="$2"
  mkdir -p target/ci
  cargo run --release --locked -p darnet-bench --bin "$bin" -- \
    --fast --json \
    --out "target/ci/$baseline" \
    --compare "$baseline" \
    --check
}

step_parallel() { run_bench bench_parallel BENCH_parallel.json; }
step_chaos()    { run_bench bench_chaos    BENCH_chaos.json; }

# `sha256  section` lines, one per repro section. fig4 prints the paths
# it wrote under the temp dir, so TMPDIR is pinned to the one the digests
# saw.
REPRO_DIGESTS=REPRO_fast.sha256
# `section seconds` lines: each section's --fast wall time in this run.
REPRO_TIMES=target/ci/repro_times.txt

step_repro() {
  cargo build --release --locked -p darnet-bench --bin repro
  mkdir -p target/ci
  local parts
  parts=$(mktemp -d)
  if ! TMPDIR=/tmp target/release/repro all --fast --check > "$parts/stdout" 2> "$parts/stderr"; then
    cat "$parts/stderr" >&2
    rm -rf "$parts"
    return 1
  fi
  # One file per section under $parts/sections; text before the first
  # marker lands in a file named `-`, which no section is.
  mkdir "$parts/sections"
  LC_ALL=C awk -v dir="$parts/sections" '
    BEGIN { f = dir "/-" }
    /^### repro / { f = dir "/" $3; printf "" > f; next }
    { print > f }' "$parts/stdout"
  awk '$1 == "repro:" { print $2, $3 }' "$parts/stderr" > "$REPRO_TIMES"
  awk '{ printf "  %-28s %6ss\n", $1, $2 }' "$REPRO_TIMES"
  local sections listed
  sections=$(ls "$parts/sections" | sort)
  listed=$(awk '{ print $2 }' "$REPRO_DIGESTS" | sort)
  local failed=0
  if [[ "$sections" != "$listed" ]]; then
    echo "repro: the sections of 'repro all' and $REPRO_DIGESTS's keys differ" >&2
    failed=1
  fi
  local want section got
  while read -r want section; do
    got=$(sha256sum < "$parts/sections/$section" 2>/dev/null | cut -d' ' -f1)
    if [[ "$got" != "$want" ]]; then
      echo "repro: $section --fast stdout sha256 is ${got:-missing}, $REPRO_DIGESTS has $want" >&2
      failed=1
    fi
  done < "$REPRO_DIGESTS"
  rm -rf "$parts"
  return "$failed"
}

# `workload:seconds` pairs. cabin_stream and fleet_ingest scale in whole
# sessions, so --seconds 1 is their smallest run; cabin_long runs at the
# nominal 20 because its golden posteriors exist at that size only (the
# session length feeds the seeded traffic draw) and below 2.5 it has too
# few latency samples for the p95 the ledger insists on.
LEDGER_SMOKES=(cabin_stream:1 cabin_long:20 fleet_ingest:1)
# `workload wire_bytes_per_label state_mb` lines, one per smoke: both are
# seeded counts, so a smoke must reproduce them exactly.
LEDGER_EXACT=LEDGER_smoke.txt

# The ledger's cargo calls prune benchmark/Cargo.lock (as in tier1.sh):
# the frozen lock is put back byte for byte however the step ends, and an
# edit under benchmark/ or to BENCHMARK.json then fails the step.
step_ledger() {
  FROZEN_LOCK=$(mktemp)
  cp benchmark/Cargo.lock "$FROZEN_LOCK"
  trap 'cp "$FROZEN_LOCK" benchmark/Cargo.lock; rm -f "$FROZEN_LOCK"' EXIT
  ledger_smokes
  cp "$FROZEN_LOCK" benchmark/Cargo.lock
  git diff --exit-code -- benchmark BENCHMARK.json
}

ledger_smokes() {
  local ledger=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
  cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
  local smoke workload verdict want got
  for smoke in "${LEDGER_SMOKES[@]}"; do
    workload=${smoke%:*}
    verdict=$("${ledger[@]}" --workload "$workload" --seed 1 --trace 0 \
      --seconds "${smoke#*:}" | tail -n 1)
    if [[ "$verdict" != *'"correct": true'* || "$verdict" != *'"failed": 0,'* ]]; then
      echo "ledger: $workload did not come back correct: ${verdict:0:120}" >&2
      return 1
    fi
    want=$(awk -v w="$workload" '$1 == w { print $2, $3 }' "$LEDGER_EXACT")
    got=$(jq -r '"\(.metrics.wire_bytes_per_label.value) \(.metrics.state_mb.value)"' \
      <<<"$verdict")
    if [[ -z "$want" ]] || ! jq -en --argjson want "[${want/ /,}]" --argjson got "[${got/ /,}]" \
      '$want == $got' >/dev/null; then
      echo "ledger: $workload wire_bytes_per_label state_mb are $got, $LEDGER_EXACT has '$want'" >&2
      return 1
    fi
  done
}

step_exhaustive() {
  cargo test --release --locked -q -p darnet-nn --lib -- --ignored --exact \
    layer::tests::tanh_all_inputs_reproduce_libm --nocapture
}

wants() {
  [[ ${#ONLY[@]} -eq 0 ]] && return 0
  local name
  for name in "${ONLY[@]}"; do
    [[ "$name" == "$1" ]] && return 0
  done
  return 1
}

SUMMARY=""
for step in "${STEPS[@]}"; do
  wants "$step" || continue
  echo "==> $step"
  start=$SECONDS
  "step_$step"
  elapsed=$((SECONDS - start))
  SUMMARY+=$(printf '  %-10s %3ds' "$step" "$elapsed")$'\n'
done

echo "==> step timings"
printf '%s' "$SUMMARY"
echo "==> non-test Rust lines per crate (scripts/loc.sh)"
scripts/loc.sh
echo "==> CI pipeline passed"
