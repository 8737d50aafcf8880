//! The calibrated clock (README.md, "Measurement protocol").
//!
//! The host this ledger runs on flips between speed regimes on a scale of
//! seconds, with bursts of interference on a scale of milliseconds: dense
//! arithmetic runs up to 1.7× slower in the slow regime, memory- and
//! allocator-bound code 1.2–1.4× slower, so no raw wall-clock number
//! repeats and no single slowdown fits all code. A frozen probe with one
//! kernel of each kind runs between every two slices of work. A duration
//! is reported as `wall ÷ slowdown`, where the slowdown is
//! `compute^a · memory^b`: each kernel's time over its pinned reference,
//! raised to the phase's fixed [`Blend`] exponents. The result is the time
//! the work would have taken on a machine where both kernels take exactly
//! their reference time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference duration of the probe's compute kernel, seconds. With
/// [`MEMORY_REF_S`] the calibrated clock's unit: pinned, never
/// re-measured — changing either rescales every timing metric and
/// invalidates comparisons with earlier commits.
pub const COMPUTE_REF_S: f64 = 0.0036;
/// Reference duration of the probe's memory kernel, seconds.
pub const MEMORY_REF_S: f64 = 0.0024;
/// Probe readings within this many wall seconds of a slice's midpoint are
/// averaged into its slowdown. A single 5 ms reading is hit or missed by
/// a millisecond burst; dividing by such a reading biases the result by
/// the reading's variance, and how bursty the host is changes from run to
/// run. Regimes last seconds, so half a second of readings tracks them.
const SMOOTH_S: f64 = 0.5;

const N: usize = 96;
const MATMUL_REPS: usize = 32;
const COPY_BYTES: usize = 4 << 20;
const COPY_REPS: usize = 3;
const MAP_KEYS: usize = 8_192;

/// How a phase's speed follows the probe's two kernels when the host
/// changes regime: `slowdown = compute^a · memory^b`. Fitted once per
/// phase by log-log least squares over the slices of ten runs that
/// crossed the regimes, checked on ten other runs, then frozen
/// (README.md, "Fitting the blend").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blend {
    /// Exponent `a` of the compute kernel's slowdown.
    pub compute: f64,
    /// Exponent `b` of the memory kernel's slowdown.
    pub memory: f64,
}

impl Blend {
    /// Set-up: model construction and forward passes, on every workload.
    pub const SETUP: Blend = Blend {
        compute: 0.7,
        memory: 0.3,
    };
    /// Recovery: parse, decode, re-ingest, on every workload.
    pub const RECOVER: Blend = Blend {
        compute: 0.4,
        memory: 0.5,
    };

    /// The slowdown this blend assigns to mean kernel times `reading`.
    pub fn slowdown(&self, reading: ProbeReading) -> f64 {
        (reading.compute_s / COMPUTE_REF_S).powf(self.compute)
            * (reading.memory_s / MEMORY_REF_S).powf(self.memory)
    }
}

/// The frozen probe: a naive i-k-j `f32` 96×96 matmul (compute-bound),
/// then a cache-busting memcpy and a `BTreeMap` build (memory- and
/// allocator-bound). It calls nothing in `crates/`, so no change to the
/// product can move the clock.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

/// One probe reading, or the mean of several.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeReading {
    /// Duration of the compute kernel, seconds.
    pub compute_s: f64,
    /// Duration of the memory kernel, seconds.
    pub memory_s: f64,
}

impl ProbeReading {
    /// A reading `ratio` times slower than the reference on both kernels.
    #[cfg(test)]
    pub fn reference_times(ratio: f64) -> Self {
        ProbeReading {
            compute_s: COMPUTE_REF_S * ratio,
            memory_s: MEMORY_REF_S * ratio,
        }
    }

    /// Achieved GFLOP/s of the compute kernel (the in-process machine
    /// peak the per-layer `tensor.peak_ratio.*` metrics divide by).
    pub fn matmul_gflops(&self) -> f64 {
        (2 * N * N * N * MATMUL_REPS) as f64 / self.compute_s / 1e9
    }

    /// Mean of `readings`.
    pub fn mean(readings: &[ProbeReading]) -> ProbeReading {
        let n = readings.len().max(1) as f64;
        ProbeReading {
            compute_s: readings.iter().map(|r| r.compute_s).sum::<f64>() / n,
            memory_s: readings.iter().map(|r| r.memory_s).sum::<f64>() / n,
        }
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    /// Allocates the probe's fixed operands.
    pub fn new() -> Self {
        Probe {
            a: (0..N * N).map(|i| (i % 7) as f32 * 0.125).collect(),
            b: (0..N * N).map(|i| (i % 5) as f32 * 0.25).collect(),
            c: vec![0.0; N * N],
            src: (0..COPY_BYTES).map(|i| i as u8).collect(),
            dst: vec![0; COPY_BYTES],
        }
    }

    /// Runs the probe once.
    pub fn run(&mut self) -> ProbeReading {
        let start = Instant::now();
        for _ in 0..MATMUL_REPS {
            self.c.fill(0.0);
            for i in 0..N {
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    let row = &self.b[k * N..(k + 1) * N];
                    for (c, &b) in self.c[i * N..(i + 1) * N].iter_mut().zip(row) {
                        *c += aik * b;
                    }
                }
            }
            black_box(&mut self.c);
        }
        let compute_s = start.elapsed().as_secs_f64();
        for _ in 0..COPY_REPS {
            self.dst.copy_from_slice(&self.src);
            black_box(&mut self.dst);
        }
        let mut map = BTreeMap::new();
        let mut key = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..MAP_KEYS {
            key = key
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            map.insert(key >> 20, i);
        }
        black_box(map.len());
        ProbeReading {
            compute_s,
            memory_s: start.elapsed().as_secs_f64() - compute_s,
        }
    }
}

/// One slice of the steady phase: a few ticks timed from outside, with a
/// probe reading on either side.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall seconds the slice's work took (probes excluded).
    pub wall_s: f64,
    /// Wall → calibrated factor, `1 ÷ slowdown`. Also the host's speed
    /// relative to the reference during the slice (1 = the reference
    /// machine, below 1 = slower).
    pub factor: f64,
    /// Fused labels emitted in the slice.
    pub labels: u64,
    /// Readings accepted in the slice.
    pub readings: u64,
    /// Whether spans were recorded during the slice.
    pub traced: bool,
}

impl Slice {
    /// The slice's duration on the calibrated clock, seconds.
    pub fn calibrated_s(&self) -> f64 {
        self.wall_s * self.factor
    }
}

/// A slice as recorded, before the run's readings are folded into its
/// factor.
struct Recorded {
    /// Wall-clock midpoint, seconds since the clock's origin.
    mid_s: f64,
    wall_s: f64,
    labels: u64,
    readings: u64,
    traced: bool,
    /// Index of the reading taken when the slice closed; the one before
    /// it opened the slice.
    closing: usize,
}

/// Factors of recorded slices from the run's probe readings: each slice
/// takes the mean of the readings within [`SMOOTH_S`] of its midpoint,
/// always including the two that bracket it.
fn fold(recorded: &[Recorded], probes: &[(f64, ProbeReading)], blend: Blend) -> Vec<Slice> {
    let readings: Vec<ProbeReading> = probes.iter().map(|p| p.1).collect();
    let (mut lo, mut hi) = (0, 0);
    recorded
        .iter()
        .map(|r| {
            while probes[lo].0 < r.mid_s - SMOOTH_S {
                lo += 1;
            }
            while hi < probes.len() && probes[hi].0 <= r.mid_s + SMOOTH_S {
                hi += 1;
            }
            let window = lo.min(r.closing - 1)..hi.max(r.closing + 1);
            Slice {
                wall_s: r.wall_s,
                factor: 1.0 / blend.slowdown(ProbeReading::mean(&readings[window])),
                labels: r.labels,
                readings: r.readings,
                traced: r.traced,
            }
        })
        .collect()
}

/// Times the steady phase: owns the probe, pauses the bench clock while a
/// probe runs (so latencies that straddle a slice boundary exclude it),
/// and collects the slices and latency samples.
pub struct SteadyClock {
    probe: Probe,
    blend: Blend,
    origin: Instant,
    /// Seconds spent in probes and other untimed gaps since `origin`.
    paused_s: f64,
    slice_start_s: f64,
    /// Every probe reading with its wall time since `origin`.
    probes: Vec<(f64, ProbeReading)>,
    recorded: Vec<Recorded>,
    latencies: Vec<(u32, f64)>,
}

/// What a finished [`SteadyClock`] hands back.
pub struct Steady {
    /// The probe, for the phases after the steady loop.
    pub probe: Probe,
    /// The slices, with their factors.
    pub slices: Vec<Slice>,
    /// `(slice index, raw seconds)` per emitted label.
    pub latencies: Vec<(u32, f64)>,
    /// Fastest compute kernel seen, GFLOP/s.
    pub matmul_peak_gflops: f64,
}

impl SteadyClock {
    /// Starts the clock with a first probe reading; `blend` is the
    /// workload's steady-phase blend.
    pub fn start(probe: Probe, blend: Blend) -> Self {
        let mut clock = SteadyClock {
            probe,
            blend,
            origin: Instant::now(),
            paused_s: 0.0,
            slice_start_s: 0.0,
            probes: Vec::new(),
            recorded: Vec::new(),
            latencies: Vec::new(),
        };
        clock.read_probe();
        clock
    }

    /// Seconds of timed work since the clock started (probes and untimed
    /// gaps excluded).
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() - self.paused_s
    }

    /// Index the next [`SteadyClock::end_slice`] will get.
    pub fn slice_index(&self) -> u32 {
        self.recorded.len() as u32
    }

    /// Records a label latency sample in the current slice.
    pub fn record_latency(&mut self, raw_s: f64) {
        self.latencies.push((self.slice_index(), raw_s));
    }

    /// Closes the current slice with the work it did, runs the probe, and
    /// opens the next slice. Returns the wall seconds the probe took, for
    /// a caller whose own clock must skip them too.
    pub fn end_slice(&mut self, labels: u64, readings: u64, traced: bool) -> f64 {
        let wall_s = self.now() - self.slice_start_s;
        let end_wall_s = self.origin.elapsed().as_secs_f64();
        let probe_s = self.read_probe();
        self.recorded.push(Recorded {
            mid_s: end_wall_s - 0.5 * wall_s,
            wall_s,
            labels,
            readings,
            traced,
            closing: self.probes.len() - 1,
        });
        if std::env::var_os("LEDGER_DEBUG").is_some() {
            let (before, after) = (
                self.probes[self.probes.len() - 2].1,
                self.probes[self.probes.len() - 1].1,
            );
            eprintln!(
                "slice {} {wall_s:.6} {:.6} {:.6} {:.6} {:.6} {labels} {readings} {end_wall_s:.4}",
                self.recorded.len() - 1,
                before.compute_s,
                before.memory_s,
                after.compute_s,
                after.memory_s,
            );
        }
        self.slice_start_s = self.now();
        probe_s
    }

    /// Runs `f` off the clock (fixture generation between rounds) and then
    /// re-reads the probe, so the next slice is bracketed by a fresh
    /// reading. Must be called on a slice boundary.
    pub fn gap<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.paused_s += start.elapsed().as_secs_f64();
        self.read_probe();
        self.slice_start_s = self.now();
        out
    }

    fn read_probe(&mut self) -> f64 {
        let start = Instant::now();
        let reading = self.probe.run();
        let took = start.elapsed().as_secs_f64();
        self.paused_s += took;
        self.probes
            .push((self.origin.elapsed().as_secs_f64() - 0.5 * took, reading));
        took
    }

    /// Ends the steady phase, folding the readings into slice factors.
    pub fn finish(self) -> Steady {
        let fastest = self
            .probes
            .iter()
            .map(|p| p.1.matmul_gflops())
            .fold(0.0, f64::max);
        Steady {
            slices: fold(&self.recorded, &self.probes, self.blend),
            probe: self.probe,
            latencies: self.latencies,
            matmul_peak_gflops: fastest,
        }
    }
}

/// Probe runs averaged into each reading that brackets a repetition of a
/// short phase: nothing can be probed inside it, so its two brackets are
/// read with more care.
const BRACKET_RUNS: usize = 3;

/// Times `reps` repetitions of a short phase, each bracketed by probe
/// readings, and returns `(calibrated median, raw median)` seconds.
/// `keep` receives each repetition's output after its closing probe, so
/// dropping it (engines, controllers) is never part of the phase.
pub fn time_repeated<T>(
    probe: &mut Probe,
    blend: Blend,
    reps: usize,
    mut phase: impl FnMut(usize) -> T,
    mut keep: impl FnMut(usize, T),
) -> (f64, f64) {
    let bracket = |probe: &mut Probe| {
        let runs: Vec<ProbeReading> = (0..BRACKET_RUNS).map(|_| probe.run()).collect();
        ProbeReading::mean(&runs)
    };
    let mut calibrated = Vec::with_capacity(reps);
    let mut raw = Vec::with_capacity(reps);
    let mut before = bracket(probe);
    for rep in 0..reps {
        let start = Instant::now();
        let out = phase(rep);
        let wall = start.elapsed().as_secs_f64();
        let after = bracket(probe);
        calibrated.push(wall / blend.slowdown(ProbeReading::mean(&[before, after])));
        raw.push(wall);
        if std::env::var_os("LEDGER_DEBUG").is_some() {
            eprintln!(
                "rep {rep} {wall:.6} {:.6} {:.6} {:.6} {:.6}",
                before.compute_s, before.memory_s, after.compute_s, after.memory_s
            );
        }
        before = after;
        keep(rep, out);
    }
    (median(&mut calibrated), median(&mut raw))
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`, which are sorted in
/// place; 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The percentile rule: the highest of the usual tail percentiles that
/// still has at least ten samples beyond it, or `None` when even the
/// median does not. A percentile past this is one outlier, not a tail.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // In per mille and whole numbers: 10 000 × (1 − 0.999) is not 10 in f64.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|per_mille| samples - (samples * per_mille).div_ceil(1000) >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVEN: Blend = Blend {
        compute: 0.5,
        memory: 0.5,
    };

    fn recorded(mid_s: f64, wall_s: f64, closing: usize) -> Recorded {
        Recorded {
            mid_s,
            wall_s,
            labels: 8,
            readings: 0,
            traced: false,
            closing,
        }
    }

    #[test]
    fn slice_bracketed_by_slow_probes_shrinks_by_the_same_ratio() {
        // Both kernels 1.5× their reference time, exponents summing to 1:
        // the slice reports 1/1.5 of its wall time.
        let slow = ProbeReading::reference_times(1.5);
        let probes = [(0.0, slow), (0.31, slow)];
        let slices = fold(&[recorded(0.155, 0.3, 1)], &probes, EVEN);
        assert!((slices[0].calibrated_s() - 0.3 / 1.5).abs() < 1e-12);
        assert!((slices[0].factor - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn slowdown_is_a_power_law_in_the_two_kernels() {
        // Compute kernel 1.7× slower, memory kernel 1.2× slower.
        let slow = ProbeReading {
            compute_s: 1.7 * COMPUTE_REF_S,
            memory_s: 1.2 * MEMORY_REF_S,
        };
        let blend = Blend {
            compute: 0.6,
            memory: 0.3,
        };
        let want = 1.7f64.powf(0.6) * 1.2f64.powf(0.3);
        assert!((blend.slowdown(slow) - want).abs() < 1e-12);
        let memory_only = Blend {
            compute: 0.0,
            memory: 1.1,
        };
        assert!((memory_only.slowdown(slow) - 1.2f64.powf(1.1)).abs() < 1e-12);
    }

    #[test]
    fn quiet_machine_leaves_wall_time_unchanged() {
        let quiet = ProbeReading::reference_times(1.0);
        let probes = [(0.0, quiet), (0.22, quiet)];
        let slices = fold(&[recorded(0.11, 0.21, 1)], &probes, Blend::RECOVER);
        assert_eq!(slices[0].calibrated_s(), 0.21);
    }

    #[test]
    fn fold_averages_the_readings_near_a_slice_and_only_those() {
        let at = |t: f64, ratio: f64| (t, ProbeReading::reference_times(ratio));
        // Readings every 0.2 s; the one at 1.0 s is a 3× burst.
        let probes = [
            at(0.0, 1.0),
            at(0.2, 1.0),
            at(0.4, 1.0),
            at(0.6, 1.0),
            at(0.8, 1.0),
            at(1.0, 3.0),
            at(1.2, 1.0),
            at(3.0, 1.0),
            at(3.2, 1.0),
        ];
        let slices = fold(
            &[recorded(0.7, 0.19, 4), recorded(3.1, 0.19, 8)],
            &probes,
            EVEN,
        );
        // Slice 1 (0.6–0.8 s) sees the readings from 0.2 s to 1.2 s: six,
        // one of them the burst, so a slowdown of 8/6 and not of 1 or 3.
        assert!((slices[0].factor - 6.0 / 8.0).abs() < 1e-12);
        // Slice 2 is far from the burst.
        assert!((slices[1].factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 95.0), 7.0);
        assert_eq!(percentile(&mut [], 95.0), 0.0);
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(4_800), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn repeated_phase_reports_medians_and_runs_every_rep() {
        let mut probe = Probe::new();
        let mut kept = Vec::new();
        let (cal, raw) = time_repeated(
            &mut probe,
            Blend::SETUP,
            5,
            |rep| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                rep
            },
            |rep, out| kept.push((rep, out)),
        );
        assert_eq!(kept, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert!(raw >= 0.002);
        assert!(cal > 0.0);
    }

    #[test]
    fn steady_clock_excludes_probe_time_from_latencies() {
        let mut clock = SteadyClock::start(Probe::new(), EVEN);
        let t0 = clock.now();
        let probe_s = clock.end_slice(1, 2, false);
        // A probe just ran (milliseconds), yet the bench clock barely moved.
        assert!(probe_s > 0.0);
        assert!(clock.now() - t0 < 0.002);
        assert_eq!(clock.slice_index(), 1);
        clock.record_latency(0.01);
        let steady = clock.finish();
        assert_eq!(steady.slices.len(), 1);
        assert_eq!(steady.latencies, vec![(1, 0.01)]);
        assert!(steady.matmul_peak_gflops > 0.0);
    }
}
