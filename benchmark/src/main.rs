//! `darnet-ledger`: the repo's one benchmark. Closes the ingest→inference
//! loop in-process through public APIs only, times it from outside on a
//! calibrated clock, checks the outputs, and prints the result line the
//! benchmark contract asks for. See `benchmark/README.md`.

mod cabin;
mod clock;
mod engine;
mod fixture;
mod fleet;
mod json;
mod layers;
mod metrics;
mod selftest;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use darnet_sim::{DrivingWorld, WorldConfig};

use clock::{percentile, Blend, Probe, SteadyClock};
use engine::{Labeler, Shadow, GOLDEN_POSTERIORS};
use trace::{NameTotals, Tracer, TICK};
use workload::{SteadyOutcome, Workload};

/// The package's fallible-function result.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage: darnet-ledger --workload <cabin_stream|cabin_long|fleet_ingest> \
--seed <n> --seconds <n> --trace <0|1> [--write-golden]
       darnet-ledger --selftest [--runs <n>]
       darnet-ledger --benchmark-json";

/// Largest allowed |golden − measured| of one posterior entry.
const GOLDEN_TOLERANCE: f32 = 1e-4;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    write_golden: bool,
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |flag: &str| flag_value(args, flag).ok_or(format!("missing {flag}"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let name = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(name, seconds).ok_or(format!("unknown workload {name}"))?,
        seed: need("--seed")?.parse().map_err(|_| "--seed wants a u64")?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace wants 0 or 1".into()),
        },
        write_golden: args.iter().any(|a| a == "--write-golden"),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--benchmark-json") {
        print!("{}", selftest::benchmark_json());
        Ok(())
    } else if args.iter().any(|a| a == "--selftest") {
        let runs = flag_value(&args, "--runs").and_then(|r| r.parse().ok());
        selftest::run(runs.unwrap_or(5))
    } else {
        match parse_args(&args) {
            Ok(parsed) => run(&parsed),
            Err(e) => Err(format!("{e}\n{USAGE}").into()),
        }
    };
    if let Err(e) = outcome {
        eprintln!("darnet-ledger: {e}");
        std::process::exit(2);
    }
}

fn golden_path(workload: &Workload) -> String {
    format!("benchmark/golden/{}.json", workload.name())
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Res<()> {
    let run_start = Instant::now();
    let workload = args.workload;
    let spec = workload.engine_spec();
    let mut probe = Probe::new();
    // Let the probe's own buffers fault in before anything is calibrated.
    for _ in 0..3 {
        probe.run();
    }

    // Set-up, repeated: build the engine from seeded initial weights, fit
    // standardizer and combiner on the fixed fit set, warm up once at the
    // workload's batch shape, open the controllers on empty storage.
    let fit = fixture::fit_set(&DrivingWorld::new(WorldConfig::default()));
    let fit = match workload {
        Workload::FleetIngest(_) => fixture::FitSet {
            front: fit
                .front
                .iter()
                .map(|f| f.downsample_nearest(spec.frame_size, spec.frame_size))
                .collect(),
            side: Vec::new(),
            ..fit
        },
        _ => fit,
    };
    let reps = workload.short_phase_reps();
    let mut built = None;
    let mut setup_error = None;
    let (setup_s, raw_setup_s) = clock::time_repeated(
        &mut probe,
        Blend::SETUP,
        reps,
        |_| -> Res<_> {
            let engine = engine::build_engine(&spec, &fit)?;
            match workload {
                Workload::FleetIngest(w) => drop(fleet::open(w.shards)?),
                Workload::CabinStream(w) | Workload::CabinLong(w) => {
                    for _ in 0..w.cabins {
                        drop(cabin::open_empty()?);
                    }
                }
            }
            Ok(engine)
        },
        |_, result| match result {
            Ok(engine) => built = Some(engine),
            Err(e) => setup_error = Some(e),
        },
    );
    if let Some(e) = setup_error {
        return Err(e);
    }
    let labeler = Labeler::new(built.ok_or("set-up never ran")?, &spec);

    // The steady closed loop.
    let mut tracer = Tracer::new();
    let steady_start = Instant::now();
    let clock = SteadyClock::start(probe, workload.steady_blend());
    let mut outcome = match workload {
        Workload::CabinStream(w) | Workload::CabinLong(w) => {
            cabin::run(&w, args.seed, labeler, clock, &mut tracer, args.trace)?
        }
        Workload::FleetIngest(w) => {
            fleet::run(&w, args.seed, labeler, clock, &mut tracer, args.trace)?
        }
    };
    let steady_wall_s = steady_start.elapsed().as_secs_f64() - outcome.fixture_s;

    // Recovery, repeated: drop every controller, reopen every WAL the run
    // wrote. The first repetition's state is checked against what was
    // acked and digested before the "kill".
    let mut recovered = Vec::new();
    let mut records = 0u64;
    let mut recover_error = None;
    let durable = std::mem::take(&mut outcome.durable);
    let (recover_s, raw_recover_s) = clock::time_repeated(
        &mut outcome.probe,
        Blend::RECOVER,
        reps,
        |_| -> Res<_> {
            let mut states = Vec::with_capacity(durable.len());
            let mut replayed = 0;
            for d in &durable {
                let (state, report) = d.recover()?;
                replayed += report.records_replayed;
                states.push(state);
            }
            Ok((states, replayed))
        },
        |rep, result| match result {
            Ok((states, replayed)) if rep == 0 => {
                recovered = states;
                records = replayed;
            }
            Ok(_) => {}
            Err(e) => recover_error = Some(e),
        },
    );
    if let Some(e) = recover_error {
        return Err(e);
    }
    let (mut acks_checked, mut acks_lost, mut digest_mismatches) = (0, 0, 0);
    for (d, state) in durable.iter().zip(&recovered) {
        let (checked, lost, digest) = d.verify(state);
        acks_checked += checked;
        acks_lost += lost;
        digest_mismatches += digest;
    }
    drop(recovered);

    // Shadow pass: the captured batches through the allocating reference.
    let stats = &outcome.labeler.stats;
    let (shadow_checked, shadow_mismatches) =
        Shadow::build(&spec, &fit)?.mismatches(&stats.shadow)?;

    // Golden posteriors exist for seed 1 only.
    let mut golden_mismatches = 0u64;
    if args.write_golden {
        std::fs::write(
            golden_path(&workload),
            selftest::golden_json(args.seed, &stats.first),
        )?;
        eprintln!("wrote {}", golden_path(&workload));
    } else if args.seed == 1 {
        let golden = selftest::read_golden(&golden_path(&workload))?;
        golden_mismatches = (0..GOLDEN_POSTERIORS)
            .filter(|&i| match (golden.get(i), stats.first.get(i)) {
                (Some(want), Some(got)) => {
                    want.len() != got.len()
                        || want
                            .iter()
                            .zip(got)
                            .any(|(a, b)| (a - b).abs() > GOLDEN_TOLERANCE)
                }
                _ => true,
            })
            .count() as u64;
    }

    // Every violation is one failed operation.
    let c = &outcome.counters;
    let missing_labels = outcome.expected_labels.abs_diff(stats.labels);
    let attempted = outcome.expected_labels + c.offered;
    let violations = [
        ("labels missing or extra", missing_labels),
        ("messages that failed to decode", c.decode_failed),
        ("batches shed", c.shed),
        (
            "posteriors differing from the shadow pass",
            shadow_mismatches,
        ),
        ("posteriors off the golden file", golden_mismatches),
        ("acked batches lost in recovery", acks_lost),
        ("digests changed by recovery", digest_mismatches),
        ("non-finite posterior entries", stats.non_finite),
        ("labels outside the class range", stats.bad_class),
    ];
    let failed: u64 = violations.iter().map(|(_, n)| n).sum();
    for (what, n) in violations.iter().filter(|(_, n)| *n > 0) {
        eprintln!("FAILED: {n} {what}");
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let e2e = end_to_end(&outcome, &mut m);
    m.insert("setup_s", setup_s);
    m.insert("recover_s", recover_s);
    m.insert("raw.setup_s", raw_setup_s);
    m.insert("raw.recover_s", raw_recover_s);
    m.insert("wal.replay_records", records as f64);
    m.insert("wal.replay_records_per_s", records as f64 / recover_s);
    m.insert("shadow.checked", (shadow_checked + acks_checked) as f64);
    m.insert("fixture.prepare_s", outcome.fixture_s);
    m.insert("run.steady_s", e2e.steady_calibrated_s);

    if args.trace {
        per_layer(&workload, &outcome, &tracer, &fit, &mut m)?;
        let path = format!("benchmark/out/trace-{}.jsonl", workload.name());
        tracer.write_jsonl(std::path::Path::new(&path))?;
    }
    m.insert(
        "run.steady_share",
        steady_wall_s / run_start.elapsed().as_secs_f64(),
    );
    m.insert("peak_rss_mb", peak_rss_mb()?);

    let supported = clock::highest_supported_percentile(outcome.latencies.len());
    eprintln!(
        "{}: {} labels in {:.2} s calibrated ({:.2} s wall, {} slices, host at {:.2}× reference); \
         {} latency samples support up to p{:?}; run {:.1} s",
        workload.name(),
        stats.labels,
        e2e.steady_calibrated_s,
        e2e.steady_wall_s,
        outcome.slices.len(),
        e2e.steady_calibrated_s / e2e.steady_wall_s,
        outcome.latencies.len(),
        supported.unwrap_or(0.0),
        run_start.elapsed().as_secs_f64(),
    );
    if supported.is_none_or(|p| p < 95.0) {
        return Err("too few latency samples for a 95th percentile".into());
    }

    let specs: &[metrics::Spec] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    println!(
        "{}",
        metrics::result_line(failed == 0, attempted, failed, specs, &m)
    );
    Ok(())
}

struct EndToEnd {
    steady_calibrated_s: f64,
    steady_wall_s: f64,
}

/// Folds slices and latency samples into the calibrated end-to-end
/// metrics and their raw twins.
fn end_to_end(o: &SteadyOutcome, m: &mut BTreeMap<&'static str, f64>) -> EndToEnd {
    let calibrated: f64 = o.slices.iter().map(|s| s.calibrated_s()).sum();
    let wall: f64 = o.slices.iter().map(|s| s.wall_s).sum();
    let labels: u64 = o.slices.iter().map(|s| s.labels).sum();
    let readings: u64 = o.slices.iter().map(|s| s.readings).sum();
    m.insert("labels_per_s", labels as f64 / calibrated);
    m.insert("ingest_readings_per_s", readings as f64 / calibrated);
    m.insert("raw.labels_per_s", labels as f64 / wall);
    m.insert("raw.ingest_readings_per_s", readings as f64 / wall);

    let mut raw_ms: Vec<f64> = o.latencies.iter().map(|&(_, s)| s * 1e3).collect();
    let mut cal_ms: Vec<f64> = o
        .latencies
        .iter()
        .map(|&(slice, s)| {
            // A label emitted in the run's last, still open slice cannot
            // happen: every round ends on a slice boundary.
            s * 1e3 * o.slices.get(slice as usize).map_or(1.0, |sl| sl.factor)
        })
        .collect();
    m.insert("label_latency_p50_ms", percentile(&mut cal_ms, 50.0));
    m.insert("label_latency_p95_ms", percentile(&mut cal_ms, 95.0));
    m.insert("raw.label_latency_p50_ms", percentile(&mut raw_ms, 50.0));
    m.insert("raw.label_latency_p95_ms", percentile(&mut raw_ms, 95.0));
    m.insert("run.latency_samples", o.latencies.len() as f64);

    m.insert(
        "wire_bytes_per_label",
        o.counters.wire_bytes as f64 / o.labeler.stats.labels.max(1) as f64,
    );
    m.insert("state_mb", o.state_bytes as f64 / 1e6);

    let mut ratios: Vec<f64> = o.slices.iter().map(|s| s.factor).collect();
    m.insert("probe.speed_ratio_p50", percentile(&mut ratios, 50.0));
    m.insert("probe.speed_ratio_p05", percentile(&mut ratios, 5.0));
    let quiet: Vec<_> = o
        .slices
        .iter()
        .filter(|s| (s.factor - 1.0).abs() <= 0.05)
        .collect();
    m.insert(
        "probe.quiet_share",
        quiet.len() as f64 / o.slices.len().max(1) as f64,
    );
    let quiet_wall: f64 = quiet.iter().map(|s| s.wall_s).sum();
    let quiet_cal: f64 = quiet.iter().map(|s| s.calibrated_s()).sum();
    if quiet_wall > 0.0 {
        m.insert(
            "probe.quiet_gap",
            (quiet_cal - quiet_wall).abs() / quiet_wall,
        );
    }
    m.insert("probe.matmul_peak_gflops", o.matmul_peak_gflops);
    m.insert("run.slices", o.slices.len() as f64);
    EndToEnd {
        steady_calibrated_s: calibrated,
        steady_wall_s: wall,
    }
}

/// Folds spans, counters and the standalone replays into the per-layer
/// metrics. Span times are scaled onto the calibrated clock with the mean
/// factor of the slices they were recorded in.
fn per_layer(
    workload: &Workload,
    o: &SteadyOutcome,
    tracer: &Tracer,
    fit: &fixture::FitSet,
    m: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let totals = trace::totals(tracer.spans());
    let traced: Vec<_> = o.slices.iter().filter(|s| s.traced).collect();
    let sum = |slices: &[&clock::Slice], f: fn(&clock::Slice) -> f64| -> f64 {
        slices.iter().map(|s| f(s)).sum()
    };
    let traced_wall = sum(&traced, |s| s.wall_s);
    let factor = if traced_wall > 0.0 {
        sum(&traced, clock::Slice::calibrated_s) / traced_wall
    } else {
        1.0
    };
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let us_per = |t: NameTotals, n: u64| {
        if n == 0 {
            0.0
        } else {
            t.total_s * factor * 1e6 / n as f64
        }
    };
    let per_call = |name: &str| {
        let t = get(name);
        us_per(t, t.count)
    };

    // Shares of tick time, by layer group.
    let tick = get(TICK);
    let share = |names: &[&str]| -> f64 {
        if tick.total_s == 0.0 {
            return 0.0;
        }
        names.iter().map(|n| get(n).self_s).sum::<f64>() / tick.total_s
    };
    m.insert("trace.spans", tracer.spans().len() as f64);
    m.insert("trace.accounted_share", 1.0 - share(&[TICK]));
    m.insert("engine.share", share(&["engine.classify"]));
    m.insert(
        "controller.read_share",
        share(&[
            "controller.aligned_imu",
            "controller.frames_sorted_for",
            "runtime.pair_frames_with_windows",
            "tsdb.query_range",
        ]),
    );
    m.insert(
        "ingest.share",
        share(&[
            "wire.decode_batch",
            "wire.ack_roundtrip",
            "controller.offer_at",
            "wal.snapshot",
            "shard.offer_at",
            "shard.drain",
            "shard.pressure",
        ]),
    );
    // Tracing overhead: calibrated cost per unit of work of each traced
    // slice against the mean of the untraced slices one toggle before and
    // one after it, which are the same kind of tick a moment away on
    // either side (so growth along a session cancels); the median shrugs
    // off the odd snapshot.
    let cost = |s: &clock::Slice| {
        let work = match workload {
            Workload::FleetIngest(_) => s.readings,
            _ => s.labels,
        };
        s.calibrated_s() / work.max(1) as f64
    };
    let stride = workload.trace_toggle_slices();
    let mut ratios: Vec<f64> = (stride..o.slices.len().saturating_sub(stride))
        .map(|i| (&o.slices[i - stride], &o.slices[i], &o.slices[i + stride]))
        .filter(|(before, on, after)| on.traced && !before.traced && !after.traced)
        .map(|(before, on, after)| cost(on) / (0.5 * (cost(before) + cost(after))))
        .collect();
    m.insert("trace.overhead_share", clock::median(&mut ratios) - 1.0);

    // Counts are whole-run totals; they do not depend on tracing.
    let c = &o.counters;
    let stats = &o.labeler.stats;
    m.insert("wire.bytes_in", c.wire_bytes as f64);
    m.insert("wire.decode_failed", c.decode_failed as f64);
    m.insert("controller.accepted", c.accepted as f64);
    m.insert("controller.duplicates", c.duplicates as f64);
    m.insert("controller.shed", c.shed as f64);
    m.insert("wal.bytes_appended", o.wal.bytes_appended as f64);
    m.insert("wal.segments_rolled", o.wal.segments_rolled as f64);
    m.insert("wal.snapshots", o.wal.snapshots_taken as f64);
    m.insert("wal.snapshot_ms_total", c.snapshot_s * 1e3);
    m.insert("wal.snapshot_ms_max", c.snapshot_max_s * 1e3);
    m.insert("tsdb.points", c.tsdb_points as f64);
    m.insert("shard.queue_peak", c.queue_peak as f64);
    m.insert("shard.queue_shed", c.shed as f64);
    m.insert("shard.skew", c.shard_skew);
    m.insert(
        "controller.read_useful_ratio",
        c.points_used as f64 / c.points_returned.max(1) as f64,
    );
    m.insert("engine.allocs_per_label", {
        stats.classify_allocs as f64 / stats.labels.max(1) as f64
    });
    m.insert("engine.workspace_misses", {
        o.labeler.engine.workspace_stats().1 as f64
    });
    let fused = o.labeler.engine.counters();
    m.insert(
        "engine.subset_fallbacks",
        (fused.partial + fused.single) as f64,
    );
    m.insert("batching.flush_by_size", stats.flush_by_size as f64);
    m.insert("batching.flush_by_deadline", stats.flush_by_deadline as f64);
    m.insert(
        "batching.batch_size_mean",
        stats.labels as f64 / stats.batches.max(1) as f64,
    );
    let mut waits = stats.waits_sim_ms.clone();
    m.insert("batching.wait_ms_p50", percentile(&mut waits, 50.0));
    m.insert("batching.wait_ms_p95", percentile(&mut waits, 95.0));
    let mut passes: Vec<f64> = o.drain_pass_s.iter().map(|s| s * 1e3 * factor).collect();
    m.insert("shard.drain_pass_p95_ms", percentile(&mut passes, 95.0));

    // Span times per operation.
    let decode = get("wire.decode_batch");
    m.insert("wire.decode_us_per_msg", us_per(decode, decode.count));
    m.insert("wire.ack_roundtrip_us", {
        let acks = get("wire.ack_roundtrip");
        match workload {
            // One span per drain pass there, covering every ack of it.
            Workload::FleetIngest(_) => us_per(acks, get("shard.offer_at").count),
            _ => us_per(acks, acks.count),
        }
    });
    m.insert(
        "controller.offer_us_per_msg",
        per_call("controller.offer_at"),
    );
    m.insert("shard.offer_us_per_msg", per_call("shard.offer_at"));
    m.insert(
        "shard.drain_us_per_msg",
        us_per(get("shard.drain"), get("shard.offer_at").count),
    );
    m.insert("shard.pressure_us_per_call", per_call("shard.pressure"));
    m.insert(
        "controller.aligned_imu_us_per_call",
        per_call("controller.aligned_imu"),
    );
    m.insert(
        "controller.frames_sorted_us_per_call",
        per_call("controller.frames_sorted_for"),
    );
    m.insert("tsdb.query_us_per_window", per_call("tsdb.query_range"));
    m.insert(
        "health.select_subset_us_per_call",
        per_call("health.select_subset"),
    );
    let traced_labels: u64 = traced.iter().map(|s| s.labels).sum();
    m.insert(
        "runtime.pair_us_per_tuple",
        us_per(get("runtime.pair_frames_with_windows"), traced_labels),
    );
    let classify = get("engine.classify");
    m.insert(
        "engine.classify_us_per_label",
        us_per(classify, traced_labels),
    );
    m.insert(
        "engine.self_us_per_label",
        classify.self_s * factor * 1e6 / traced_labels.max(1) as f64,
    );

    // Standalone replays of captured inputs, off the steady clock.
    let spec = workload.engine_spec();
    if let Some(sample) = stats.shadow.first() {
        let (front, windows) = sample.inputs();
        layers::model_layers(&spec, fit, front, windows, o.matmul_peak_gflops, m)?;
    }
    let aligns = !matches!(workload, Workload::FleetIngest(_));
    layers::collect_layers(&o.sample_messages, aligns, m)?;
    // `offer_at` minus the `Wal::append` inside it.
    let offer = m["controller.offer_us_per_msg"];
    if offer > 0.0 {
        m.insert(
            "controller.self_us_per_msg",
            (offer - m["wal.append_us_per_msg"]).max(0.0),
        );
    }
    if let Workload::FleetIngest(w) = workload {
        m.insert(
            "shard.parallel_drain_speedup",
            layers::parallel_drain_speedup(&o.sample_messages, w.shards)?,
        );
    }
    Ok(())
}
