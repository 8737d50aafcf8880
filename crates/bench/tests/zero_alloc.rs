//! Steady-state zero-allocation gate for the workspace inference path.
//!
//! Uses the crate's counting global allocator
//! ([`darnet_bench::alloc_counter`]) to prove that, after warm-up, the
//! `*_into` classification paths of an engine that runs its streams
//! inline never touch the heap — and that the engine does run them inline
//! when a lone stream is left or, by default, when its models sit below
//! the fan-out floor, as every engine here does.
//! It is the only dynamic gate on that contract (DESIGN.md §12.4;
//! darlint's `hot-alloc` is the static one), so each entry point keeps
//! its own assertion and message. The counter
//! is per thread, so the tests here run side by side and the harness's
//! own allocations stay out of every measurement.
//!
//! The same counter gates the controller's two sides: a frame read
//! allocates per call, not per frame of history, and an IMU reading is
//! written as one TSDB row, allocating for growth only (DESIGN.md §18),
//! and so does a record appended to the WAL (DESIGN.md §13.1).
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use darnet_bench::alloc_counter;
use darnet_bench::fixtures::{
    random_tensor, tiny_cnn, tiny_engine, tiny_pair, tiny_rnn, FRAME_SIZE,
};
use darnet_collect::runtime::AlignedTuple;
use darnet_collect::wal::{self, MemStorage, WalConfig, WalStorage};
use darnet_collect::{
    Batch, Controller, ControllerConfig, SensorReading, StampedReading, StreamId,
};
use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet_core::privacy::PrivacyLevel;
use darnet_core::registry::FAN_OUT_MIN_FLOPS;
use darnet_core::{
    ClassMap, CombinerKind, ImuSvm, MicroBatchConfig, MicroBatcher, ModalityDescriptor,
    ModalityStatus, MultiModalEngine, MultiStepClassification, StreamInput, StreamModelSlot,
};
use darnet_sim::{Frame, ImuSample};
use darnet_tensor::{Parallelism, SplitMix64, Tensor};
use std::sync::Arc;

const BATCH: usize = 8;

/// A 3-stream registry engine: IMU RNN behind the 6→3 projection plus
/// two camera views, fused through a 3-parent Bayesian combiner.
fn tiny_registry_engine() -> MultiModalEngine {
    let rnn = tiny_rnn();
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

/// One `classify_*_into` entry point, closed over its inputs.
type Path<'a> = (
    &'a str,
    &'a dyn Fn(&mut MultiModalEngine, &mut Vec<MultiStepClassification>),
);

/// The contract, stated once. A warm-up call into a temporary leaves the
/// first call into a caller's fresh vector allocation-free (the ledger's
/// order). After two warm-up rounds over every path, three more rounds —
/// paths interleaved, so each call follows one at another batch shape or
/// stream subset, all writing one output vector the way a caller that
/// keeps its buffer does (the ledger's labeller sees batches of 8, 6, 8,
/// 2) — never touch the heap.
fn assert_steady_state(name: &str, engine: &mut MultiModalEngine, paths: &[Path<'_>]) {
    let (first, path) = &paths[0];
    path(engine, &mut Vec::new());
    let mut out = Vec::new();
    let ((), allocs) = alloc_counter::allocations_during(|| path(engine, &mut out));
    assert_eq!(allocs, 0, "{name}: {first} into a fresh vector allocated");
    for _ in 0..2 {
        for (_, path) in paths {
            path(engine, &mut out);
        }
    }
    for round in 0..3 {
        for (what, path) in paths {
            let ((), allocs) = alloc_counter::allocations_during(|| path(engine, &mut out));
            assert_eq!(allocs, 0, "{name}: {what} allocated in round {round}");
        }
    }
}

#[test]
fn warm_into_paths_perform_zero_heap_allocations() {
    let frames: Vec<Frame> = (0..2 * BATCH)
        .map(|_| Frame::new(FRAME_SIZE, FRAME_SIZE))
        .collect();
    let (frames, side_frames) = frames.split_at(BATCH);
    let windows = random_tensor(&[BATCH, WINDOW_LEN, IMU_FEATURES], 14);
    let row = WINDOW_LEN * IMU_FEATURES;
    let first_windows = |n: usize| {
        Tensor::from_vec(
            windows.data()[..n * row].to_vec(),
            &[n, WINDOW_LEN, IMU_FEATURES],
        )
        .expect("window slice")
    };
    let (single_window, six_windows, two_windows) =
        (first_windows(1), first_windows(6), first_windows(2));
    let tuples: Vec<AlignedTuple> = (0..BATCH)
        .map(|i| AlignedTuple {
            t: i as f64 * 0.25,
            frame: frames[i].clone(),
            window: windows.data()[i * row..(i + 1) * row].to_vec(),
        })
        .collect();
    let batch_inputs = [
        (StreamId::IMU, StreamInput::Windows(&windows)),
        (StreamId::CAMERA_FRONT, StreamInput::Frames(frames)),
        (StreamId::CAMERA_SIDE, StreamInput::Frames(side_frames)),
    ];
    let first_steps = |windows| {
        let n = StreamInput::Windows(windows).len();
        [
            (StreamId::IMU, StreamInput::Windows(windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames[..n])),
            (
                StreamId::CAMERA_SIDE,
                StreamInput::Frames(&side_frames[..n]),
            ),
        ]
    };
    let step_inputs = first_steps(&single_window);
    let (six_inputs, two_inputs) = (first_steps(&six_windows), first_steps(&two_windows));

    // The paper's pair, with either IMU model in its slot: a batch, a
    // single step, and the collect-to-engine tuple feed, between batches
    // of the other sizes the ledger's micro-batcher flushes.
    let pair_paths: [Path<'_>; 5] = [
        ("classify_batch_into", &|engine, out| {
            let inputs = &batch_inputs[..2];
            engine.classify_batch_into(inputs, out).expect("batch");
            assert_eq!(out.len(), BATCH);
        }),
        ("classify_batch_into, 6 steps", &|engine, out| {
            engine
                .classify_batch_into(&six_inputs[..2], out)
                .expect("6");
            assert_eq!(out.len(), 6);
        }),
        ("classify_batch_into, 1 step", &|engine, out| {
            let inputs = &step_inputs[..2];
            engine.classify_batch_into(inputs, out).expect("step");
            assert_eq!(out.len(), 1);
        }),
        ("classify_tuples_into", &|engine, out| {
            engine
                .classify_tuples_into(StreamId::CAMERA_FRONT, StreamId::IMU, &tuples, out)
                .expect("tuples");
            assert_eq!(out.len(), BATCH);
        }),
        ("classify_batch_into, 2 steps", &|engine, out| {
            engine
                .classify_batch_into(&two_inputs[..2], out)
                .expect("2");
            assert_eq!(out.len(), 2);
        }),
    ];
    assert_steady_state("pair, RNN slot", &mut tiny_engine(), &pair_paths);
    let mut svm = ImuSvm::new(WINDOW_LEN, IMU_FEATURES, 3);
    svm.fit(&windows, &[0, 1, 2, 0, 1, 2, 0, 1], &mut SplitMix64::new(5))
        .expect("svm smoke fit");
    let mut svm_pair = tiny_pair(StreamModelSlot::Svm(svm));
    assert_steady_state("pair, SVM slot", &mut svm_pair, &pair_paths);

    // Three streams: full fusion and the health-gated subset path alike.
    let front_down = [(StreamId::CAMERA_FRONT, ModalityStatus::Unavailable)];
    let registry_paths: [Path<'_>; 5] = [
        ("classify_batch_into", &|engine, out| {
            engine
                .classify_batch_into(&batch_inputs, out)
                .expect("batch");
            assert_eq!(out.len(), BATCH);
        }),
        ("classify_batch_into, 6 steps", &|engine, out| {
            engine.classify_batch_into(&six_inputs, out).expect("6");
            assert_eq!(out.len(), 6);
        }),
        ("classify_batch_into, 1 step", &|engine, out| {
            engine.classify_batch_into(&step_inputs, out).expect("step");
            assert_eq!(out.len(), 1);
        }),
        ("the health-gated subset path", &|engine, out| {
            engine
                .classify_batch_checked_into(&batch_inputs, &front_down, out)
                .expect("subset");
            assert_eq!(out.len(), BATCH);
        }),
        ("classify_batch_into, 2 steps", &|engine, out| {
            engine.classify_batch_into(&two_inputs, out).expect("2");
            assert_eq!(out.len(), 2);
        }),
    ];
    assert_steady_state("3 streams", &mut tiny_registry_engine(), &registry_paths);

    // The privacy route: frames distorted to a third of the edge are
    // restored inside the engine workspace and served by the dCNN-L
    // student, next to full-resolution batches on the same stream.
    let level = PrivacyLevel::Low;
    let small = level.target_size(FRAME_SIZE);
    let distorted: Vec<Frame> = (0..BATCH).map(|_| Frame::new(small, small)).collect();
    let private_inputs = [
        batch_inputs[0],
        (StreamId::CAMERA_FRONT, StreamInput::Frames(&distorted)),
    ];
    let mut private = tiny_engine();
    private
        .register_dcnn(StreamId::CAMERA_FRONT, level, tiny_cnn(9))
        .expect("register student");
    let private_paths: [Path<'_>; 2] = [
        ("a distorted batch", &|engine, out| {
            engine
                .classify_batch_into(&private_inputs, out)
                .expect("private");
            assert_eq!(out.len(), BATCH);
        }),
        pair_paths[0],
    ];
    assert_steady_state("private-frame route", &mut private, &private_paths);
}

/// The engine's stream fan-out is the only thread policy there is, and it
/// fans out only when two streams or more take part: a warm call with one
/// stream left to run is run inline, where a thread scope would allocate.
#[test]
fn a_single_survivor_runs_inline_under_a_threaded_engine() {
    let mut registry = tiny_registry_engine();
    registry.set_parallelism(Parallelism::new(4));
    let windows = random_tensor(&[BATCH, WINDOW_LEN, IMU_FEATURES], 14);
    let survivor = [(StreamId::IMU, StreamInput::Windows(&windows))];
    let mut labels: Vec<MultiStepClassification> = Vec::new();
    let mut call = || {
        registry
            .classify_batch_into(&survivor, &mut labels)
            .expect("single survivor");
    };
    call();
    call();
    let ((), allocs) = alloc_counter::allocations_during(call);
    assert_eq!(
        allocs, 0,
        "a single-survivor registry call allocated on a warm call"
    );
}

/// Fan-out is on by default — the engine takes the host's threads — but
/// only for calls heavy enough to pay for a spawn. A default-constructed
/// 3-stream engine of the tiny models, with no `set_parallelism` call,
/// carries less than [`FAN_OUT_MIN_FLOPS`] over a whole batch, so a warm
/// full-batch call runs inline and allocates nothing on any host.
#[test]
fn a_default_engine_below_the_floor_runs_inline() {
    let flops = tiny_cnn(3).flops_per_frame() * 2 + tiny_rnn().flops_per_window();
    assert!(BATCH * flops < FAN_OUT_MIN_FLOPS, "{BATCH} × {flops} FLOPs");
    let mut registry = tiny_registry_engine();
    let frames: Vec<Frame> = (0..BATCH)
        .map(|_| Frame::new(FRAME_SIZE, FRAME_SIZE))
        .collect();
    let windows = random_tensor(&[BATCH, WINDOW_LEN, IMU_FEATURES], 14);
    let inputs = [
        (StreamId::IMU, StreamInput::Windows(&windows)),
        (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
        (StreamId::CAMERA_SIDE, StreamInput::Frames(&frames)),
    ];
    let mut labels: Vec<MultiStepClassification> = Vec::new();
    let mut call = || {
        registry
            .classify_batch_into(&inputs, &mut labels)
            .expect("3-stream batch");
    };
    call();
    call();
    let ((), allocs) = alloc_counter::allocations_during(call);
    assert_eq!(
        allocs, 0,
        "a default 3-stream engine below the fan-out floor allocated on a warm call"
    );
}

/// The read side's regression gate: counts repeat exactly where timings
/// do not. A frame read clones pointers into one `Vec`, so it costs the
/// same allocation events over a 64-frame history as over a 1 024-frame
/// one (with owned pixel buffers it cost one more per frame), and handing
/// a frame of the result on to a warm micro-batcher costs none.
#[test]
fn frame_reads_allocate_per_call_not_per_frame() {
    const EDGE: usize = 48;
    let read = |history: usize| {
        let mut controller = Controller::new(ControllerConfig::default());
        for seq in 0..history as u32 {
            let batch = Batch {
                // Two cameras interleaved: the read must not visit the other's.
                agent_id: 1 + seq % 2,
                seq: seq / 2,
                readings: vec![StampedReading {
                    timestamp: f64::from(seq / 2) * 0.25,
                    reading: SensorReading::Frame(Frame::new(EDGE, EDGE)),
                }],
            };
            controller.offer_at(0.0, &batch, None).expect("offer");
        }
        let (frames, allocs) = alloc_counter::allocations_during(|| {
            controller.frames_sorted_for(StreamId::CAMERA_FRONT)
        });
        assert_eq!(frames.len(), history / 2);
        (frames, allocs)
    };
    let (_, short) = read(2 * 64);
    let (frames, long) = read(2 * 1024);
    assert_eq!(short, long, "a frame read allocates per frame of history");
    assert!(long <= 2, "a frame read allocated {long} times");

    let tuple = |record: &darnet_collect::FrameRecord, window: Vec<f32>| AlignedTuple {
        t: record.t,
        frame: record.frame.clone(),
        window,
    };
    let mut batcher = MicroBatcher::new(MicroBatchConfig {
        max_batch: 32,
        max_delay: 1.0,
    });
    // Built out here: the windows are the caller's, the frames the read's.
    let (first, second) = (
        vec![0.0f32; WINDOW_LEN * IMU_FEATURES],
        vec![0.0f32; WINDOW_LEN * IMU_FEATURES],
    );
    assert!(batcher.push(tuple(&frames[0], first), 0.0).is_none());
    let (flushed, allocs) =
        alloc_counter::allocations_during(|| batcher.push(tuple(&frames[1], second), 0.0));
    assert!(flushed.is_none());
    assert_eq!(allocs, 0, "a warm push of a read frame allocated");
}

/// The write side's gate, again as a count. An IMU reading reaches the
/// one store that keeps it as one row under a name built per batch in
/// place, so in-order readings into a warm controller allocate only when
/// the stamp and value buffers (and the batch's seen-set) grow — logged
/// and fanned out over twelve named series it was 13 events or more per
/// reading. Per-agent keys cost the same.
#[test]
fn imu_ingest_allocates_for_growth_not_per_reading() {
    const BATCHES: u32 = 32;
    const PER_BATCH: u32 = 32;
    let batch = |seq: u32| Batch {
        agent_id: 0,
        seq,
        readings: (0..PER_BATCH)
            .map(|i| StampedReading {
                timestamp: f64::from(seq * PER_BATCH + i) * 0.025,
                reading: SensorReading::Imu(ImuSample::from_features(&[i as f32; 12])),
            })
            .collect(),
    };
    let ingest = |per_agent_series: bool| {
        let mut controller = Controller::new(ControllerConfig {
            per_agent_series,
            ..ControllerConfig::default()
        });
        // Warm: the stream, its series and the key scratch exist.
        controller.offer_at(0.0, &batch(0), None).expect("offer");
        let traffic: Vec<Batch> = (1..=BATCHES).map(batch).collect();
        let ((), allocs) = alloc_counter::allocations_during(|| {
            for batch in &traffic {
                controller.offer_at(0.0, batch, None).expect("offer");
            }
        });
        let readings = ((BATCHES + 1) * PER_BATCH) as usize;
        assert_eq!(controller.imu_observation_count(), readings);
        allocs
    };
    let shared = ingest(false);
    let readings = u64::from(BATCHES * PER_BATCH);
    assert!(
        shared * 32 <= readings,
        "{readings} in-order imu readings allocated {shared} times"
    );
    assert_eq!(ingest(true), shared, "per-agent keys allocate per reading");
}

/// The WAL's gate, as a count. A record is framed in the log's reused
/// scratch and appended to its segment object under the name the log
/// keeps, so warm appends within one segment allocate only when the
/// object's buffer grows; building the name and the store's key on every
/// call was three events per record.
#[test]
fn wal_append_allocates_for_growth_not_per_record() {
    const APPENDS: u32 = 256;
    let batch = |seq: u32| Batch {
        agent_id: 0,
        seq,
        readings: (0..32)
            .map(|i| StampedReading {
                timestamp: f64::from(seq * 32 + i) * 0.025,
                reading: SensorReading::Imu(ImuSample::from_features(&[i as f32; 12])),
            })
            .collect(),
    };
    let storage = Arc::new(MemStorage::new());
    let (_, mut log, _) = wal::open(
        ControllerConfig::default(),
        Arc::clone(&storage) as Arc<dyn WalStorage>,
        WalConfig {
            segment_max_records: u64::from(APPENDS) + 1,
            snapshot_every: 0,
        },
    )
    .expect("open");
    // Warm: the segment object and the framing scratch exist.
    log.append(0.0, &batch(0)).expect("append");
    let traffic: Vec<Batch> = (1..=APPENDS).map(batch).collect();
    let ((), allocs) = alloc_counter::allocations_during(|| {
        for batch in &traffic {
            log.append(f64::from(batch.seq), batch).expect("append");
        }
    });
    assert_eq!(log.segment_index(), 0, "the appends left the first segment");
    assert_eq!(log.stats().appends, u64::from(APPENDS) + 1);
    assert!(
        allocs * 16 <= u64::from(APPENDS),
        "{APPENDS} warm wal appends allocated {allocs} times"
    );
}
