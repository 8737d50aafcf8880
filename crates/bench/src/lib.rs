//! # darnet-bench
//!
//! Benchmark harness for the DarNet reproduction. Two kinds of targets:
//!
//! * **`repro_*` binaries** — regenerate every table and figure of the
//!   paper (`cargo run -p darnet-bench --release --bin repro_table2`).
//!   Each accepts `--fast` to run a reduced-scale smoke version.
//! * **`bench_*` binaries** — the gated harnesses behind the committed
//!   `BENCH_*.json` baselines (thread speedups, crash recovery, fleet
//!   ingest), all driven through [`gate`]. Per-kernel and per-layer
//!   timings live in the pipeline ledger (`benchmark/`), not here; the
//!   zero-alloc inference path is held by `tests/zero_alloc.rs`.
#![expect(
    clippy::disallowed_methods,
    reason = "the bench harness times runs, seeds its workloads and reads and writes its baselines"
)]

use darnet_core::experiment::{ExperimentConfig, MultiviewConfig, PrivacyExperimentConfig};

/// Returns true if the process args request the reduced-scale preset.
pub fn fast_requested() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// Picks the experiment config from the command line (`--fast` or full).
pub fn experiment_config() -> ExperimentConfig {
    if fast_requested() {
        ExperimentConfig::fast()
    } else {
        ExperimentConfig::paper()
    }
}

/// Picks the privacy experiment config from the command line.
pub fn privacy_config() -> PrivacyExperimentConfig {
    if fast_requested() {
        PrivacyExperimentConfig::fast()
    } else {
        PrivacyExperimentConfig::paper()
    }
}

/// Picks the multiview N-stream ablation config from the command line.
pub fn multiview_config() -> MultiviewConfig {
    if fast_requested() {
        MultiviewConfig::fast()
    } else {
        MultiviewConfig::paper()
    }
}

/// Formats a fraction as a paper-style percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Flat-JSON metric files for bench-regression tracking.
///
/// The CI pipeline commits a baseline `BENCH_parallel.json` and compares
/// every run's metrics against it. Files are a single flat object of
/// numeric values — hand-rolled here so the harness works offline with no
/// serde dependence. Three key prefixes participate in regression
/// comparison: `speedup_*` and `rate_*` are higher-is-better, `cost_*`
/// is lower-is-better. Speedups are ratios of two timings taken on the
/// same machine in the same run, so they are comparable across machines;
/// `rate_`/`cost_` keys must likewise be machine-portable (simulated-time
/// latencies, deterministic byte counts, 0/1 invariant checks — or
/// wall-clock rates whose committed baselines are deliberately
/// conservative). Each seeded bench also names its *seeded counts* —
/// integers its seed fully determines (batches acked, WAL bytes,
/// deliveries) — which must equal the baseline exactly: a refactor that
/// re-rolls a seeded session moves them long before any ratio. Everything
/// else is recorded for humans but would make the gate flaky across
/// hardware.
pub mod metrics {
    use std::collections::BTreeMap;

    /// Higher-is-better metric prefix subject to regression comparison.
    pub const COMPARED_PREFIX: &str = "speedup_";
    /// Higher-is-better prefix for throughputs and invariant indicators.
    pub const RATE_PREFIX: &str = "rate_";
    /// Lower-is-better prefix for latencies and footprints.
    pub const COST_PREFIX: &str = "cost_";

    /// Serializes metrics as a flat JSON object (sorted keys, one per
    /// line — diff-friendly for a committed baseline).
    pub fn to_json(metrics: &BTreeMap<String, f64>) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (k, v) in metrics {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  {k:?}: {v}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a flat JSON object of numbers (the subset [`to_json`]
    /// emits, whitespace-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| "metrics file is not a JSON object".to_string())?;
        let mut out = BTreeMap::new();
        for entry in body.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("malformed entry {entry:?}"))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted key in {entry:?}"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("bad number for {key:?}: {e}"))?;
            out.insert(key.to_string(), value);
        }
        Ok(out)
    }

    /// Compares a run against a committed baseline: every `speedup_*` or
    /// `rate_*` key present in both must not fall below
    /// `baseline × (1 − tolerance)`, and every `cost_*` key must not rise
    /// above `baseline × (1 + tolerance)`. Improvements never fail.
    /// A baseline key ending with an entry of `seeded` (a whole name, or
    /// the suffix a family shares) is a seeded count instead: any
    /// difference fails, in either direction.
    /// Returns the list of regression descriptions (empty = pass).
    // darlint: pure-root
    pub fn compare(
        baseline: &BTreeMap<String, f64>,
        current: &BTreeMap<String, f64>,
        tolerance: f64,
        seeded: &[&str],
    ) -> Vec<String> {
        let mut regressions = Vec::new();
        for (key, &base) in baseline {
            if seeded.iter().any(|s| key.ends_with(s)) {
                match current.get(key) {
                    Some(&cur) if cur == base => {}
                    Some(&cur) => regressions.push(format!(
                        "{key}: seeded count {cur} differs from baseline {base}"
                    )),
                    None => regressions.push(format!("{key}: missing from current run")),
                }
                continue;
            }
            let higher_better = key.starts_with(COMPARED_PREFIX) || key.starts_with(RATE_PREFIX);
            let lower_better = key.starts_with(COST_PREFIX);
            if (!higher_better && !lower_better) || base <= 0.0 {
                continue;
            }
            match current.get(key) {
                Some(&cur) if higher_better && cur < base * (1.0 - tolerance) => {
                    regressions.push(format!(
                        "{key}: {cur:.3} is below baseline {base:.3} − {:.0}% tolerance",
                        tolerance * 100.0
                    ));
                }
                Some(&cur) if lower_better && cur > base * (1.0 + tolerance) => {
                    regressions.push(format!(
                        "{key}: {cur:.3} is above baseline {base:.3} + {:.0}% tolerance",
                        tolerance * 100.0
                    ));
                }
                Some(_) => {}
                None => regressions.push(format!("{key}: missing from current run")),
            }
        }
        regressions
    }
}

/// The command-line runner the four gated benchmarks share
/// (`bench_parallel`, `bench_chaos`, `bench_fleet`,
/// `repro_ablation_multiview` — steps 3–6 of `scripts/ci.sh`).
///
/// Flags:
///
/// * `--fast` — reduced scale (the CI smoke configuration).
/// * `--json` — print the metrics JSON to stdout instead of a summary.
/// * `--out PATH` — also write the metrics JSON to `PATH`.
/// * `--compare PATH` — compare against a committed baseline
///   ([`metrics::compare`]); exits non-zero on any regression beyond
///   [`TOLERANCE`](gate::TOLERANCE) or any seeded count that differs.
/// * `--check` — enforce the benchmark's own invariant gates.
pub mod gate {
    use std::collections::BTreeMap;
    use std::time::Instant;

    use crate::metrics;

    /// One run's flat metrics, as [`metrics::to_json`] writes them.
    pub type Metrics = BTreeMap<String, f64>;

    /// Allowed regression against the committed baseline.
    pub const TOLERANCE: f64 = 0.15;

    fn arg_value(args: &[String], flag: &str) -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    }

    /// A benchmark that has run and reported, and is yet to be judged.
    pub struct Gate {
        check: bool,
        /// This run's metrics.
        pub results: Metrics,
        /// The `--compare` baseline and its path, if one was given. Keys
        /// removed here are left out of the comparison.
        pub baseline: Option<(String, Metrics)>,
    }

    /// Where a benchmark's `--check` closure reports the gates it
    /// failed.
    #[derive(Default)]
    pub struct Failures(bool);

    impl Failures {
        /// Reports one failed gate.
        pub fn fail(&mut self, message: impl std::fmt::Display) {
            eprintln!("GATE FAILED: {message}");
            self.0 = true;
        }

        /// Fails every `(key, floor, why)` whose metric is below its
        /// floor.
        pub fn floors(&mut self, results: &Metrics, floors: &[(&str, f64, &str)]) {
            for &(key, floor, why) in floors {
                if results[key] < floor {
                    self.fail(format_args!("{key} = {} < {floor} — {why}", results[key]));
                }
            }
        }
    }

    impl Gate {
        /// Parses the process arguments, runs the benchmark (`run` gets
        /// `--fast`), prints the JSON or — under `title` — `summary`'s
        /// rendering of it, and honours `--out`.
        ///
        /// # Panics
        ///
        /// If the `--out` path cannot be written or the `--compare`
        /// baseline cannot be read or parsed.
        pub fn start(
            title: &str,
            run: impl FnOnce(bool) -> Metrics,
            summary: impl FnOnce(&Metrics),
        ) -> Gate {
            let args: Vec<String> = std::env::args().skip(1).collect();
            let flag = |name: &str| args.iter().any(|a| a == name);
            let results = run(flag("--fast"));
            let text = metrics::to_json(&results);
            if flag("--json") {
                print!("{text}");
            } else {
                crate::header(title);
                summary(&results);
            }
            if let Some(path) = arg_value(&args, "--out") {
                std::fs::write(&path, &text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                eprintln!("wrote {path}");
            }
            let baseline = arg_value(&args, "--compare").map(|path| {
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("reading {path}: {e}"));
                let parsed =
                    metrics::parse_json(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
                (path, parsed)
            });
            Gate {
                check: flag("--check"),
                results,
                baseline,
            }
        }

        /// Compares against the baseline (`seeded` names the counts
        /// that must match it exactly), runs `check` under `--check`,
        /// and exits with status 1 if either found a failure.
        pub fn finish(self, seeded: &[&str], check: impl FnOnce(&Metrics, &mut Failures)) {
            let mut failures = Failures::default();
            if let Some((path, baseline)) = &self.baseline {
                let regressions = metrics::compare(baseline, &self.results, TOLERANCE, seeded);
                if regressions.is_empty() {
                    eprintln!("no regressions against {path}");
                }
                for r in &regressions {
                    eprintln!("REGRESSION: {r}");
                    failures.0 = true;
                }
            }
            if self.check {
                check(&self.results, &mut failures);
                if !failures.0 {
                    eprintln!("all gates passed");
                }
            }
            if failures.0 {
                std::process::exit(1);
            }
        }
    }

    /// Best (minimum) seconds per call for two alternatives measured
    /// back-to-back in the same loop, after one warmup call each, and how
    /// many times faster B ran than A. The single closure runs alternative
    /// A when called with `false` and B with `true` (one closure, so both
    /// sides may borrow the same engine). Interleaving keeps scheduler
    /// drift from loading one side of the comparison, and min-of-N is
    /// robust to noise spikes on small shared hosts.
    ///
    /// The speedup is the median over reps of that rep's A/B time ratio,
    /// not the quotient of the two minima: a rep's two calls are adjacent
    /// in time, so a noisy phase of the host scales both, and the median
    /// drops the reps a spike split. On a shared 2-vCPU VM that repeats to
    /// ±6 % where the quotient of minima swings ±25 %.
    ///
    /// # Panics
    ///
    /// If `reps` is 0.
    pub fn paired_time_per_call<F: FnMut(bool)>(reps: usize, mut f: F) -> (f64, f64, f64) {
        f(false);
        f(true);
        let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            f(false);
            let a = start.elapsed().as_secs_f64();
            let start = Instant::now();
            f(true);
            let b = start.elapsed().as_secs_f64();
            best_a = best_a.min(a);
            best_b = best_b.min(b);
            ratios.push(a / b);
        }
        ratios.sort_by(f64::total_cmp);
        (best_a, best_b, ratios[ratios.len() / 2])
    }

    /// The default summary: one line per metric, the unit read off the
    /// key (`speedup_*` ×, `*_ms`, `*_rps`, `*_s`, `*_mb`).
    pub fn print_metrics(results: &Metrics) {
        for (key, value) in results {
            if key.starts_with("speedup_") {
                println!("{key:38} {value:.3}×");
            } else if key.ends_with("_ms") {
                println!("{key:38} {value:.4} ms");
            } else if key.ends_with("_rps") {
                println!("{key:38} {value:.0} readings/s");
            } else if key.ends_with("_s") {
                println!("{key:38} {value:.4} s");
            } else if key.ends_with("_mb") {
                println!("{key:38} {value:.2} MB");
            } else if value.abs() >= 1e6 {
                println!("{key:38} {value:.3e}");
            } else {
                println!("{key:38} {value:.3}");
            }
        }
    }
}

/// Counting global allocator for allocation-budget benchmarks and tests.
///
/// Installed as this crate's `#[global_allocator]`, so every
/// `darnet-bench` binary and test can measure heap
/// allocation events (alloc + realloc; frees are not counted). The
/// zero-alloc inference gate (the `zero_alloc` integration test) and the
/// ledger's `engine.allocs_per_label` are built on this.
///
/// Events are counted **per thread**: a measurement sees what the
/// measuring thread allocated and nothing else. A process-wide counter
/// also caught the test harness's main thread filing the test it had just
/// spawned (four allocations, up to a scheduler stall late), which failed
/// a warm zero-allocation assertion in a quarter of runs on a busy host.
/// A spawn still shows: creating a thread allocates on the spawning one.
#[allow(unsafe_code)]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // Const-initialised and without a destructor, so the allocator
        // can touch it at any point of a thread's life without allocating.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    fn count() {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }

    /// A [`System`]-backed allocator that counts every allocation event.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Allocation events on the calling thread since it started.
    pub fn allocation_count() -> u64 {
        ALLOCS.with(Cell::get)
    }

    /// Runs `f` and returns its result together with the number of
    /// allocation events it performed on the calling thread.
    pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = allocation_count();
        let out = f();
        (out, allocation_count() - before)
    }
}

/// The deliberately small engine `bench_parallel` and `tests/zero_alloc.rs`
/// both drive, and its parts: per-item compute low enough that per-call
/// overhead (allocation, dispatch, per-step LSTM products) is a visible
/// fraction of a call. Seeded, so two calls build twins.
pub mod fixtures {
    use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
    use darnet_core::{
        CnnConfig, CombinerKind, FrameCnn, ImuRnn, MultiModalEngine, NaryBayesianCombiner,
        RnnConfig, StreamModelSlot,
    };
    use darnet_tensor::{SplitMix64, Tensor};

    /// Frame edge the tiny CNN takes.
    pub const FRAME_SIZE: usize = 12;

    /// A seeded tensor that is non-zero everywhere: the matmul kernel
    /// skips zero elements, so a zero-filled input would measure the
    /// wrong code path.
    pub fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = SplitMix64::new(seed);
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.uniform(0.1, 1.0);
        }
        t
    }

    /// A quarter-width 6-class CNN over [`FRAME_SIZE`]² frames.
    pub fn tiny_cnn(seed: u64) -> FrameCnn {
        FrameCnn::new(
            CnnConfig {
                input_size: FRAME_SIZE,
                classes: 6,
                width: 0.25,
                ..CnnConfig::default()
            },
            seed,
        )
    }

    /// A one-layer, 8-unit IMU RNN after one smoke epoch.
    pub fn tiny_rnn() -> ImuRnn {
        let mut rnn = ImuRnn::new(
            RnnConfig {
                hidden: 8,
                depth: 1,
                ..RnnConfig::default()
            },
            2,
        );
        let x = Tensor::ones(&[6, WINDOW_LEN, IMU_FEATURES]);
        rnn.fit(&x, &[0, 1, 2, 0, 1, 2], 1).expect("rnn smoke fit");
        rnn
    }

    /// The paper's pair — [`tiny_cnn`] on the front camera, `imu` on the
    /// IMU stream — behind a fitted Bayesian combiner.
    pub fn tiny_pair(imu: StreamModelSlot) -> MultiModalEngine {
        let mut combiner = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        let (cnn_probs, imu_probs) = (
            Tensor::full(&[6, 6], 1.0 / 6.0),
            Tensor::full(&[6, 3], 1.0 / 3.0),
        );
        combiner
            .fit(&[&cnn_probs, &imu_probs], &[0, 1, 2, 3, 4, 5])
            .expect("combiner smoke fit");
        MultiModalEngine::darnet_pair(CombinerKind::Bayesian, tiny_cnn(1), imu, combiner)
            .expect("pair engine")
    }

    /// [`tiny_pair`] with [`tiny_rnn`] in the IMU slot.
    pub fn tiny_engine() -> MultiModalEngine {
        tiny_pair(StreamModelSlot::Rnn(tiny_rnn()))
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.8702), "87.02%");
        assert_eq!(pct(0.0), "0.00%");
        assert_eq!(pct(1.0), "100.00%");
    }

    #[test]
    fn metrics_json_roundtrips() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("speedup_matmul_threads".to_string(), 2.125);
        m.insert("threads_available".to_string(), 4.0);
        m.insert("throughput_matmul_serial".to_string(), 1.5e9);
        let text = metrics::to_json(&m);
        assert_eq!(metrics::parse_json(&text).unwrap(), m);
    }

    #[test]
    fn metrics_parser_rejects_garbage() {
        assert!(metrics::parse_json("not json").is_err());
        assert!(metrics::parse_json("{\"a\": nope}").is_err());
        assert!(metrics::parse_json("{a: 1}").is_err());
        assert_eq!(metrics::parse_json("{}").unwrap().len(), 0);
    }

    #[test]
    fn compare_flags_only_speedup_regressions() {
        let mut base = std::collections::BTreeMap::new();
        base.insert("speedup_matmul_threads".to_string(), 2.0);
        base.insert("speedup_engine_batch32".to_string(), 1.8);
        base.insert("throughput_matmul_serial".to_string(), 1e9);

        // Within tolerance, absolute throughput halved: pass.
        let mut cur = base.clone();
        cur.insert("speedup_matmul_threads".to_string(), 1.75);
        cur.insert("throughput_matmul_serial".to_string(), 5e8);
        assert!(metrics::compare(&base, &cur, 0.15, &[]).is_empty());

        // Speedup collapsed: fail.
        cur.insert("speedup_matmul_threads".to_string(), 1.0);
        let regressions = metrics::compare(&base, &cur, 0.15, &[]);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("speedup_matmul_threads"));

        // Missing compared key: fail.
        cur.remove("speedup_engine_batch32");
        cur.insert("speedup_matmul_threads".to_string(), 2.0);
        let regressions = metrics::compare(&base, &cur, 0.15, &[]);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("missing"));

        // Improvements never fail.
        cur.insert("speedup_engine_batch32".to_string(), 3.0);
        assert!(metrics::compare(&base, &cur, 0.15, &[]).is_empty());
    }

    #[test]
    fn compare_gates_rates_up_and_costs_down() {
        let mut base = std::collections::BTreeMap::new();
        base.insert("rate_ingest_rps".to_string(), 100_000.0);
        base.insert("cost_ack_p99_s".to_string(), 0.20);
        base.insert("cost_bytes_per_agent".to_string(), 4096.0);
        base.insert("agents".to_string(), 10_000.0);

        // Within tolerance both ways; the unprefixed key is ignored.
        let mut cur = base.clone();
        cur.insert("rate_ingest_rps".to_string(), 90_000.0);
        cur.insert("cost_ack_p99_s".to_string(), 0.22);
        cur.insert("agents".to_string(), 1.0);
        assert!(metrics::compare(&base, &cur, 0.15, &[]).is_empty());

        // Throughput collapse fails.
        cur.insert("rate_ingest_rps".to_string(), 50_000.0);
        let regressions = metrics::compare(&base, &cur, 0.15, &[]);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("rate_ingest_rps"));

        // Cost blow-up fails (lower-is-better inverts the check).
        cur.insert("rate_ingest_rps".to_string(), 100_000.0);
        cur.insert("cost_bytes_per_agent".to_string(), 9000.0);
        let regressions = metrics::compare(&base, &cur, 0.15, &[]);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("cost_bytes_per_agent"));

        // Cost improvements never fail; missing gated cost key does.
        cur.insert("cost_bytes_per_agent".to_string(), 100.0);
        assert!(metrics::compare(&base, &cur, 0.15, &[]).is_empty());
        cur.remove("cost_ack_p99_s");
        assert_eq!(metrics::compare(&base, &cur, 0.15, &[]).len(), 1);
    }

    #[test]
    fn compare_holds_seeded_counts_to_equality() {
        let mut base = std::collections::BTreeMap::new();
        base.insert("chaos_acked".to_string(), 41.0);
        base.insert("chaos_acked_lost".to_string(), 0.0);
        base.insert("fleet10000_shards8_deliveries".to_string(), 69_373.0);
        base.insert("session_rerun_ms".to_string(), 5.6);
        let seeded = ["chaos_acked", "chaos_acked_lost", "_deliveries"];

        // Equal counts pass whatever the wall clock did; unnamed, the
        // counts are recorded for humans only.
        let mut cur = base.clone();
        cur.insert("session_rerun_ms".to_string(), 50.0);
        assert!(metrics::compare(&base, &cur, 0.15, &seeded).is_empty());
        cur.insert("chaos_acked".to_string(), 40.0);
        assert!(metrics::compare(&base, &cur, 0.15, &[]).is_empty());

        // One batch fewer, one delivery more, a zero that moved: each
        // fails, in either direction and far inside the tolerance.
        cur.insert("fleet10000_shards8_deliveries".to_string(), 69_374.0);
        cur.insert("chaos_acked_lost".to_string(), 1.0);
        let regressions = metrics::compare(&base, &cur, 0.15, &seeded);
        assert_eq!(regressions.len(), 3, "{regressions:?}");
        assert!(regressions.iter().all(|r| r.contains("seeded count")));

        // A seeded count the run no longer reports fails too.
        cur = base.clone();
        cur.remove("chaos_acked");
        let regressions = metrics::compare(&base, &cur, 0.15, &seeded);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("missing"));
    }
}
