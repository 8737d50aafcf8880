//! Zero-alloc inference-path benchmark with regression tracking.
//!
//! Measures the workspace-backed `*_into` classification paths against
//! the allocating paths on the same engine and inputs, and — via the
//! crate's counting global allocator ([`darnet_bench::alloc_counter`]) —
//! the number of heap allocation events a steady-state classification
//! performs. Three shapes are measured, matching how the engine is
//! actually driven: one step at a time (streaming), a micro-batch of 8
//! (a typical deadline flush at 4 Hz), and the `MicroBatcher` tuple
//! drain. Emits a flat-JSON metrics file (see [`darnet_bench::metrics`]).
//!
//! Flags:
//!
//! * `--fast`, `--json`, `--out PATH`, `--compare PATH` — the shared
//!   gated-bench conventions, see [`darnet_bench::gate`].
//! * `--check` — enforce the acceptance gates: the warm workspace paths
//!   perform exactly **0** heap allocations per call, and single-step
//!   steady-state throughput is no lower than the allocating path's,
//!   within [`gate::TOLERANCE`]. (Every layer has one forward body, so
//!   the allocating path runs the same kernels on a fresh workspace per
//!   model call and the ratio reads ≈1.06: the gate holds the workspace
//!   path to never being the slower one, not to a margin.)

use std::collections::BTreeMap;

use darnet_bench::alloc_counter;
use darnet_bench::gate::{self, paired_time_per_call, Gate};
use darnet_collect::runtime::AlignedTuple;
use darnet_collect::StreamId;
use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet_core::{
    AnalyticsEngine, BayesianCombiner, ClassMap, CnnConfig, CombinerKind, EngineConfig, FrameCnn,
    ImuModelSlot, ImuRnn, ModalityDescriptor, MultiModalEngine, MultiStepClassification, RnnConfig,
    StepClassification, StreamInput, StreamModelSlot,
};
use darnet_sim::Frame;
use darnet_tensor::{SplitMix64, Tensor};

const FRAME_SIZE: usize = 12;
/// Micro-batch size for the batched measurements: what a deadline flush
/// typically holds at the paper's 4 Hz per-driver rate. (At much larger
/// batches per-item model compute dominates and the allocation savings
/// shrink toward the noise floor.)
const BATCH: usize = 8;
const STEP_SPEEDUP_FLOOR: f64 = 1.0 - gate::TOLERANCE;

fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SplitMix64::new(seed);
    let mut t = Tensor::zeros(dims);
    // Non-zero everywhere: the matmul kernel skips zero elements, so a
    // zero-filled benchmark input would measure the wrong code path.
    for v in t.data_mut() {
        *v = rng.uniform(0.1, 1.0);
    }
    t
}

/// The same deliberately small engine as `bench_parallel`: per-item
/// compute low enough that per-call allocation and dispatch overhead is a
/// visible fraction of runtime, which is exactly what the workspace path
/// removes. The engine keeps its default serial parallelism — threaded
/// dispatch allocates by design, so the zero-alloc contract is serial.
fn tiny_engine() -> AnalyticsEngine {
    let cnn = FrameCnn::new(
        CnnConfig {
            input_size: FRAME_SIZE,
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
    rnn.fit(&x, &[0, 1, 2, 0, 1, 2], 1).expect("rnn smoke fit");
    let mut combiner = BayesianCombiner::darnet();
    combiner
        .fit(
            &Tensor::full(&[6, 6], 1.0 / 6.0),
            &Tensor::full(&[6, 3], 1.0 / 3.0),
            &[0, 1, 2, 3, 4, 5],
        )
        .expect("combiner smoke fit");
    AnalyticsEngine::new(
        cnn,
        ImuModelSlot::Rnn(rnn),
        combiner,
        EngineConfig {
            combiner: CombinerKind::Bayesian,
        },
    )
}

/// A 3-stream registry engine with the same tiny models: IMU RNN behind
/// the 6→3 projection plus front and side camera views, fused through a
/// 3-parent Bayesian combiner. Serial, like `tiny_engine` — the
/// zero-alloc contract generalizes to N streams only on the serial path.
fn tiny_registry_engine() -> MultiModalEngine {
    let tiny_cnn = |seed: u64| {
        FrameCnn::new(
            CnnConfig {
                input_size: FRAME_SIZE,
                classes: 6,
                width: 0.25,
                ..CnnConfig::default()
            },
            seed,
        )
    };
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
    let mut engine = MultiModalEngine::new(6, CombinerKind::Bayesian);
    engine
        .register(ModalityDescriptor::darnet_imu(), StreamModelSlot::Rnn(rnn))
        .expect("register imu");
    engine
        .register(
            ModalityDescriptor::darnet_camera(),
            StreamModelSlot::Cnn(tiny_cnn(3)),
        )
        .expect("register front");
    engine
        .register(
            ModalityDescriptor::new(StreamId::CAMERA_SIDE, ClassMap::Identity),
            StreamModelSlot::Cnn(tiny_cnn(4)),
        )
        .expect("register side");
    engine
        .fit_combiner(
            &[
                &Tensor::full(&[6, 3], 1.0 / 3.0),
                &Tensor::full(&[6, 6], 1.0 / 6.0),
                &Tensor::full(&[6, 6], 1.0 / 6.0),
            ],
            &[0, 1, 2, 3, 4, 5],
        )
        .expect("combiner smoke fit");
    engine
}

/// Worst (maximum) allocation count over `probes` calls of `f`, after
/// `warmups` unmeasured calls. Max-of-N because a single allocating call
/// anywhere in steady state is a contract violation, not noise.
fn steady_allocs<F: FnMut()>(warmups: usize, probes: usize, mut f: F) -> u64 {
    for _ in 0..warmups {
        f();
    }
    let mut worst = 0u64;
    for _ in 0..probes {
        let ((), allocs) = alloc_counter::allocations_during(&mut f);
        worst = worst.max(allocs);
    }
    worst
}

fn run(fast: bool) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.insert("threads_available".to_string(), available as f64);

    let mut engine = tiny_engine();
    let frames: Vec<Frame> = (0..BATCH)
        .map(|_| Frame::new(FRAME_SIZE, FRAME_SIZE))
        .collect();
    let windows = random_tensor(&[BATCH, WINDOW_LEN, IMU_FEATURES], 14);
    let row = WINDOW_LEN * IMU_FEATURES;
    let single_window = Tensor::from_vec(
        windows.data()[..row].to_vec(),
        &[1, WINDOW_LEN, IMU_FEATURES],
    )
    .expect("window slice");
    let tuples: Vec<AlignedTuple> = (0..BATCH)
        .map(|i| AlignedTuple {
            t: i as f64 * 0.25,
            frame: frames[i].clone(),
            window: windows.data()[i * row..(i + 1) * row].to_vec(),
        })
        .collect();
    let mut results: Vec<StepClassification> = Vec::new();
    let mut step_result: Vec<StepClassification> = Vec::new();

    // Steady-state allocation counts for every workspace path.
    let probes = if fast { 3 } else { 5 };
    let allocs_batch = steady_allocs(3, probes, || {
        engine
            .classify_batch_into(&frames, &windows, &mut results)
            .expect("classify_batch_into");
    });
    out.insert("allocs_per_batch_steady".to_string(), allocs_batch as f64);
    let allocs_step = steady_allocs(3, probes, || {
        engine
            .classify_step_into(&frames[0], &single_window, &mut step_result)
            .expect("classify_step_into");
    });
    out.insert("allocs_per_step_steady".to_string(), allocs_step as f64);
    let allocs_tuples = steady_allocs(3, probes, || {
        engine
            .classify_tuples_into(&tuples, &mut results)
            .expect("classify_tuples_into");
    });
    out.insert("allocs_per_flush_steady".to_string(), allocs_tuples as f64);

    // The allocating baseline, for scale (informative, not gated).
    let ((), base_allocs) = alloc_counter::allocations_during(|| {
        engine
            .classify_batch(&frames, &windows)
            .expect("classify_batch");
    });
    out.insert(
        "allocs_per_batch_alloc_path".to_string(),
        base_allocs as f64,
    );

    // Steady-state timing: allocating path vs workspace path on the same
    // engine and inputs (everything warmed by the probes above). Only the
    // single-step comparison is a compared/gated `speedup_*` metric: it
    // has the largest allocation-to-compute ratio and therefore the most
    // stable margin; the batched ratios swing with scheduler noise on
    // small hosts and are recorded under `ratio_*` for humans.
    let reps = if fast { 15 } else { 50 };
    let (t_step_alloc, t_step_ws, speedup) = paired_time_per_call(reps, |workspace_path| {
        if workspace_path {
            engine
                .classify_step_into(&frames[0], &single_window, &mut step_result)
                .expect("classify_step_into");
        } else {
            engine
                .classify_step(&frames[0], &single_window)
                .expect("classify_step");
        }
    });
    out.insert("throughput_step_alloc".to_string(), 1.0 / t_step_alloc);
    out.insert("throughput_step_workspace".to_string(), 1.0 / t_step_ws);
    out.insert("speedup_workspace_step".to_string(), speedup);

    let (t_batch_alloc, t_batch_ws, speedup) = paired_time_per_call(reps, |workspace_path| {
        if workspace_path {
            engine
                .classify_batch_into(&frames, &windows, &mut results)
                .expect("classify_batch_into");
        } else {
            engine
                .classify_batch(&frames, &windows)
                .expect("classify_batch");
        }
    });
    let items = BATCH as f64;
    out.insert("throughput_batch8_alloc".to_string(), items / t_batch_alloc);
    out.insert(
        "throughput_batch8_workspace".to_string(),
        items / t_batch_ws,
    );
    out.insert("ratio_workspace_batch8".to_string(), speedup);

    let (t_tuples_alloc, t_tuples_ws, speedup) = paired_time_per_call(reps, |workspace_path| {
        if workspace_path {
            engine
                .classify_tuples_into(&tuples, &mut results)
                .expect("classify_tuples_into");
        } else {
            engine.classify_tuples(&tuples).expect("classify_tuples");
        }
    });
    out.insert(
        "throughput_tuples8_alloc".to_string(),
        items / t_tuples_alloc,
    );
    out.insert(
        "throughput_tuples8_workspace".to_string(),
        items / t_tuples_ws,
    );
    out.insert("ratio_workspace_tuples8".to_string(), speedup);

    // The N-stream registry engine is held to the same zero-alloc bar on
    // its warm serial paths, at both measured shapes.
    let mut registry = tiny_registry_engine();
    let side_frames: Vec<Frame> = (0..BATCH)
        .map(|_| Frame::new(FRAME_SIZE, FRAME_SIZE))
        .collect();
    let batch_inputs = [
        (StreamId::IMU, StreamInput::Windows(&windows)),
        (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
        (StreamId::CAMERA_SIDE, StreamInput::Frames(&side_frames)),
    ];
    let step_inputs = [
        (StreamId::IMU, StreamInput::Windows(&single_window)),
        (
            StreamId::CAMERA_FRONT,
            StreamInput::Frames(std::slice::from_ref(&frames[0])),
        ),
        (
            StreamId::CAMERA_SIDE,
            StreamInput::Frames(std::slice::from_ref(&side_frames[0])),
        ),
    ];
    let mut multi_results: Vec<MultiStepClassification> = Vec::new();
    let mut multi_step: Vec<MultiStepClassification> = Vec::new();
    let allocs_multi_batch = steady_allocs(3, probes, || {
        registry
            .classify_batch_into(&batch_inputs, &mut multi_results)
            .expect("registry classify_batch_into");
    });
    out.insert(
        "allocs_per_multistream_batch_steady".to_string(),
        allocs_multi_batch as f64,
    );
    let allocs_multi_step = steady_allocs(3, probes, || {
        registry
            .classify_step_into(&step_inputs, &mut multi_step)
            .expect("registry classify_step_into");
    });
    out.insert(
        "allocs_per_multistream_step_steady".to_string(),
        allocs_multi_step as f64,
    );

    out
}

fn main() {
    Gate::start(
        "workspace-backed zero-alloc inference",
        run,
        gate::print_metrics,
    )
    .finish(|results, failures| {
        for key in [
            "allocs_per_batch_steady",
            "allocs_per_step_steady",
            "allocs_per_flush_steady",
            "allocs_per_multistream_batch_steady",
            "allocs_per_multistream_step_steady",
        ] {
            if results[key] != 0.0 {
                failures.fail(format_args!(
                    "{key} = {} ≠ 0 — the warm workspace path must not touch the heap",
                    results[key]
                ));
            }
        }
        if results["speedup_workspace_step"] < STEP_SPEEDUP_FLOOR {
            failures.fail(format_args!(
                "speedup_workspace_step = {:.3} < {STEP_SPEEDUP_FLOOR}",
                results["speedup_workspace_step"]
            ));
        }
    });
}
