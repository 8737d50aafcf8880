//! # darnet-bench
//!
//! Benchmark harness for the DarNet reproduction. Two kinds of targets:
//!
//! * **`repro`** — every table, figure and ablation of the paper, one
//!   section each (`cargo run -p darnet-bench --release --bin repro --
//!   table2 fig5`); `--fast` runs the reduced-scale smoke version.
//! * **`bench_*` binaries** — the two gated harnesses behind the
//!   committed `BENCH_*.json` baselines (engine speedups, crash-recovery
//!   timings), both driven through [`gate`]. Per-kernel and per-layer
//!   timings live in the pipeline ledger (`benchmark/`), not here; the
//!   zero-alloc inference path is held by `tests/zero_alloc.rs`, and the
//!   counts a seed fixes by the crates' golden tests.
#![expect(
    clippy::disallowed_methods,
    reason = "the bench harness times runs, seeds its workloads and reads and writes its baselines"
)]

/// Formats a fraction as a paper-style percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Flat-JSON metric files: `darnet-pure`'s, so the comparison the
/// gates rest on reads no clock, file or RNG.
pub use darnet_pure::metrics;

/// The command-line runner the two gated benchmarks share
/// (`bench_parallel` and `bench_chaos`, steps 3–4 of `scripts/ci.sh`).
/// They gate wall-clock readings only: a number the seed fixes is a
/// test's to pin.
///
/// Flags:
///
/// * `--fast` — reduced scale (the CI smoke configuration).
/// * `--json` — print the metrics JSON to stdout instead of a summary.
/// * `--out PATH` — also write the metrics JSON to `PATH`.
/// * `--compare PATH` — compare against a committed baseline
///   ([`metrics::compare`]); exits non-zero on any `speedup_*` ratio that
///   regressed beyond [`TOLERANCE`](gate::TOLERANCE).
/// * `--check` — enforce the benchmark's own floors and budgets.
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
                print!("{}", crate::header(title));
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

        /// Compares against the baseline, runs `check` under `--check`,
        /// and exits with status 1 if either found a failure.
        pub fn finish(self, check: impl FnOnce(&Metrics, &mut Failures)) {
            let mut failures = Failures::default();
            if let Some((path, baseline)) = &self.baseline {
                let regressions = metrics::compare(baseline, &self.results, TOLERANCE);
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
    /// key (`speedup_*` ×, `*_ms`).
    pub fn print_metrics(results: &Metrics) {
        for (key, value) in results {
            if key.starts_with("speedup_") {
                println!("{key:38} {value:.3}×");
            } else if key.ends_with("_ms") {
                println!("{key:38} {value:.4} ms");
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

/// A section header line, after a blank one.
pub fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
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
}
