//! Live middleware demo (paper Figures 1–2): collection agents on real
//! threads stream encoded batches over channels to the centralized
//! controller, which synchronizes, aligns, smooths, and stores the data —
//! then drains the aligned tuples into the analytics engine through the
//! micro-batched, zero-alloc session path and reports what crossed the
//! wire.
//!
//! ```text
//! cargo run --release --example live_pipeline
//! ```

use std::error::Error;
use std::sync::Arc;

use darnet::collect::live::run_live_session;
use darnet::collect::runtime::pair_frames_with_windows;
use darnet::collect::ControllerConfig;
use darnet::collect::StreamId;
use darnet::core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet::core::{
    CnnConfig, CombinerKind, FrameCnn, ImuRnn, MicroBatchConfig, MicroBatcher, MultiModalEngine,
    NaryBayesianCombiner, RnnConfig, StreamModelSlot,
};
use darnet::sim::{CanonicalBehavior, DrivingWorld, Segment, WorldConfig};
use darnet::tensor::Tensor;

/// A minimally-fitted engine standing in for a trained stack (the
/// quickstart example trains a real one) — this demo is about the
/// collect-to-engine feed path, not accuracy.
fn demo_engine(frame_size: usize) -> Result<MultiModalEngine, Box<dyn Error>> {
    let cnn = FrameCnn::new(
        CnnConfig {
            input_size: frame_size,
            classes: 6,
            width: 0.25,
            ..CnnConfig::default()
        },
        1,
    );
    let mut rnn = ImuRnn::new(
        RnnConfig {
            hidden: 8,
            depth: 1,
            ..RnnConfig::default()
        },
        2,
    );
    let x = Tensor::ones(&[6, WINDOW_LEN, IMU_FEATURES]);
    rnn.fit(&x, &[0, 1, 2, 0, 1, 2], 1)?;
    let mut combiner = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
    combiner.fit(
        &[
            &Tensor::full(&[6, 6], 1.0 / 6.0),
            &Tensor::full(&[6, 3], 1.0 / 3.0),
        ],
        &[0, 1, 2, 3, 4, 5],
    )?;
    Ok(MultiModalEngine::darnet_pair(
        CombinerKind::Bayesian,
        cnn,
        StreamModelSlot::Rnn(rnn),
        combiner,
    )?)
}

fn main() -> Result<(), Box<dyn Error>> {
    let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
    // One driver performing three scripted 10-second tasks.
    let segments = vec![
        Segment {
            driver: 0,
            behavior: CanonicalBehavior::NormalDriving,
            start: 0.0,
            duration: 10.0,
        },
        Segment {
            driver: 0,
            behavior: CanonicalBehavior::Texting,
            start: 10.0,
            duration: 10.0,
        },
        Segment {
            driver: 0,
            behavior: CanonicalBehavior::Talking,
            start: 20.0,
            duration: 10.0,
        },
    ];
    let duration = 30.0;

    println!("starting camera + IMU agents on worker threads...");
    let report = run_live_session(&world, 0, &segments, duration, ControllerConfig::default())?;

    let (batches, readings) = report.controller.ingest_stats();
    println!("controller ingested {batches} batches / {readings} readings");
    println!(
        "wire traffic: {} bytes across {} transmissions",
        report.bytes_transferred, report.batches
    );

    let frames = report.controller.frames_sorted();
    println!("camera frames received: {}", frames.len());
    println!(
        "raw IMU observations: {} (40 Hz, four Android sensor channels)",
        report.controller.imu_observation_count()
    );

    let aligned = report.controller.aligned_imu()?;
    println!(
        "aligned IMU grid: {} points at 4 Hz after interpolation + smoothing",
        aligned.len()
    );

    // Peek into the statsd-like time-series store the controller filled.
    println!("\ntime-series store contents:");
    for metric in report.controller.tsdb().metrics().iter().take(6) {
        let stats = report.controller.tsdb().stats(metric)?;
        println!(
            "  {:<24} {:>6} pts  mean {:>8.3}  range [{:.2}, {:.2}]",
            metric, stats.count, stats.mean, stats.min, stats.max
        );
    }

    // The accelerometer magnitude should sit near gravity on average.
    let accel_stats = report.controller.tsdb().stats("imu.2")?;
    println!(
        "\naccelerometer z-channel mean {:.2} m/s^2 (gravity-dominated, as expected)",
        accel_stats.mean
    );

    // Finally, feed the aligned stream to the analytics engine the way a
    // deployed controller does: a micro-batcher accumulates 4 Hz tuples
    // and flushes on size or deadline, and every flush drains through
    // the zero-alloc session API (`classify_tuples_into`) on the
    // engine's reused buffers — after the first flush warms the
    // workspace, steady-state flushes never touch the heap (DESIGN.md
    // §12).
    let frame_size = frames.first().map_or(48, |f| f.frame.width());
    let tuples = pair_frames_with_windows(&frames, &aligned, WINDOW_LEN);
    println!("\naligned frame+window tuples: {}", tuples.len());

    let mut engine = demo_engine(frame_size)?;
    let mut batcher = MicroBatcher::new(MicroBatchConfig {
        max_batch: 8,
        max_delay: 0.25,
    });
    let (camera, imu) = (StreamId::CAMERA_FRONT, StreamId::IMU);
    let mut results = Vec::new();
    let (mut flushes, mut classified) = (0usize, 0usize);
    for tuple in tuples {
        let now = tuple.t;
        if let Some(batch) = batcher.push(tuple, now) {
            engine.classify_tuples_into(camera, imu, &batch, &mut results)?;
            flushes += 1;
            classified += results.len();
        }
    }
    let tail = batcher.flush();
    if !tail.is_empty() {
        engine.classify_tuples_into(camera, imu, &tail, &mut results)?;
        flushes += 1;
        classified += results.len();
    }
    let (hits, misses) = engine.workspace_stats();
    println!(
        "classified {classified} steps in {flushes} micro-batch flushes \
         (session workspace: {hits} pooled checkouts, {misses} cold allocations)"
    );
    Ok(())
}
