//! Steady-state zero-allocation gate for the workspace inference path.
//!
//! Uses the crate's counting global allocator
//! ([`darnet_bench::alloc_counter`]) to prove that, after warm-up, the
//! `*_into` classification paths of a serially-configured engine never
//! touch the heap — and that no layer or model spawns a thread of its
//! own under a threaded policy. It is the only dynamic gate on that
//! contract (DESIGN.md §12.4; darlint's `hot-alloc` is the static one),
//! so each entry point keeps its own assertion and message. The counter
//! is per thread, so the tests here run side by side and the harness's
//! own allocations stay out of every measurement.

use darnet_bench::alloc_counter;
use darnet_bench::fixtures::{random_tensor, tiny_cnn, tiny_engine, tiny_rnn, FRAME_SIZE};
use darnet_collect::runtime::AlignedTuple;
use darnet_collect::StreamId;
use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet_core::{
    ClassMap, CombinerKind, ModalityDescriptor, ModalityStatus, MultiModalEngine,
    MultiStepClassification, StepClassification, StreamInput, StreamModelSlot,
};
use darnet_nn::{BiLstm, InceptionBlock, InceptionChannels, Layer, Mode};
use darnet_sim::Frame;
use darnet_tensor::{Parallelism, SplitMix64, Tensor, Workspace};

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

#[test]
fn warm_into_paths_perform_zero_heap_allocations() {
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

    // Warm-up: one call per path populates the workspaces and session
    // buffers for every shape used below.
    for _ in 0..2 {
        engine
            .classify_batch_into(&frames, &windows, &mut results)
            .expect("warm classify_batch_into");
        engine
            .classify_step_into(&frames[0], &single_window, &mut step_result)
            .expect("warm classify_step_into");
        engine
            .classify_tuples_into(&tuples, &mut results)
            .expect("warm classify_tuples_into");
    }

    // Steady state: several rounds, every round must be allocation-free.
    for round in 0..3 {
        let ((), allocs) = alloc_counter::allocations_during(|| {
            engine
                .classify_batch_into(&frames, &windows, &mut results)
                .expect("steady classify_batch_into");
        });
        assert_eq!(allocs, 0, "classify_batch_into allocated in round {round}");
        assert_eq!(results.len(), BATCH);

        let ((), allocs) = alloc_counter::allocations_during(|| {
            engine
                .classify_step_into(&frames[0], &single_window, &mut step_result)
                .expect("steady classify_step_into");
        });
        assert_eq!(allocs, 0, "classify_step_into allocated in round {round}");
        assert_eq!(step_result.len(), 1);

        let ((), allocs) = alloc_counter::allocations_during(|| {
            engine
                .classify_tuples_into(&tuples, &mut results)
                .expect("steady classify_tuples_into");
        });
        assert_eq!(allocs, 0, "classify_tuples_into allocated in round {round}");
        assert_eq!(results.len(), BATCH);
    }

    // The N-stream registry engine must meet the same bar: after
    // warm-up, serial `classify_*_into` calls — full fusion and the
    // health-gated subset path alike — never touch the heap.
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
    let front_down = [(StreamId::CAMERA_FRONT, ModalityStatus::Unavailable)];
    let mut multi_results: Vec<MultiStepClassification> = Vec::new();
    let mut multi_step: Vec<MultiStepClassification> = Vec::new();

    for _ in 0..2 {
        registry
            .classify_batch_into(&batch_inputs, &mut multi_results)
            .expect("warm registry classify_batch_into");
        registry
            .classify_step_into(&step_inputs, &mut multi_step)
            .expect("warm registry classify_step_into");
        registry
            .classify_batch_checked_into(&batch_inputs, &front_down, &mut multi_results)
            .expect("warm registry subset path");
    }

    for round in 0..3 {
        let ((), allocs) = alloc_counter::allocations_during(|| {
            registry
                .classify_batch_into(&batch_inputs, &mut multi_results)
                .expect("steady registry classify_batch_into");
        });
        assert_eq!(
            allocs, 0,
            "registry classify_batch_into allocated in round {round}"
        );
        assert_eq!(multi_results.len(), BATCH);

        let ((), allocs) = alloc_counter::allocations_during(|| {
            registry
                .classify_step_into(&step_inputs, &mut multi_step)
                .expect("steady registry classify_step_into");
        });
        assert_eq!(
            allocs, 0,
            "registry classify_step_into allocated in round {round}"
        );
        assert_eq!(multi_step.len(), 1);

        let ((), allocs) = alloc_counter::allocations_during(|| {
            registry
                .classify_batch_checked_into(&batch_inputs, &front_down, &mut multi_results)
                .expect("steady registry subset path");
        });
        assert_eq!(
            allocs, 0,
            "registry health-gated subset path allocated in round {round}"
        );
        assert_eq!(multi_results.len(), BATCH);
    }
}

/// Below the engine's streams, the kernels' row chunks are the only
/// fan-out there is. Under a four-thread policy at the default `min_work`
/// this file's shapes keep every kernel under the threshold, so a warm
/// call that allocates anything has spawned a thread from a layer, a
/// model, or an engine with one stream to run.
#[test]
fn layers_and_models_never_spawn_under_a_threaded_policy() {
    fn steady(what: &str, mut call: impl FnMut()) {
        call();
        call();
        let ((), allocs) = alloc_counter::allocations_during(call);
        assert_eq!(allocs, 0, "{what} allocated on a warm call");
    }
    let par = Parallelism::new(4);
    let mut ws = Workspace::new();

    let channels = InceptionChannels {
        c1: 2,
        c3_reduce: 2,
        c3: 3,
        c5_reduce: 1,
        c5: 2,
        pool_proj: 1,
    };
    let mut block = InceptionBlock::new(2, channels, &mut SplitMix64::new(5));
    block.set_parallelism(par);
    let maps = random_tensor(&[BATCH, 2, 6, 6], 6);
    steady("InceptionBlock::forward_into", || {
        let y = block
            .forward_into(&maps, Mode::Eval, &mut ws)
            .expect("inception forward");
        ws.restore(y);
    });

    let mut bilstm = BiLstm::new(IMU_FEATURES, 8, &mut SplitMix64::new(7));
    bilstm.set_parallelism(par);
    let windows = random_tensor(&[BATCH, WINDOW_LEN, IMU_FEATURES], 14);
    steady("BiLstm::forward_seq_into", || {
        let h = bilstm
            .forward_seq_into(&windows, Mode::Eval, &mut ws)
            .expect("bilstm forward");
        ws.restore(h);
    });

    let mut probs = Vec::new();
    let mut cnn = tiny_cnn(3);
    cnn.set_parallelism(par);
    let frames = random_tensor(&[BATCH, 1, FRAME_SIZE, FRAME_SIZE], 8);
    steady("FrameCnn::predict_proba_into", || {
        cnn.predict_proba_into(&frames, &mut probs)
            .expect("cnn posterior");
    });

    let mut rnn = tiny_rnn();
    rnn.set_parallelism(par);
    steady("ImuRnn::predict_proba_into", || {
        rnn.predict_proba_into(&windows, &mut probs)
            .expect("rnn posterior");
    });

    // One stream left to run is run inline: a thread scope would allocate.
    let mut registry = tiny_registry_engine();
    registry.set_parallelism(par);
    let survivor = [(StreamId::IMU, StreamInput::Windows(&windows))];
    let mut labels: Vec<MultiStepClassification> = Vec::new();
    steady("a single-survivor registry call", || {
        registry
            .classify_batch_into(&survivor, &mut labels)
            .expect("single survivor");
    });
}
