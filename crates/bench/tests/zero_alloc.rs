//! Steady-state zero-allocation gate for the workspace inference path.
//!
//! Uses the crate's counting global allocator
//! ([`darnet_bench::alloc_counter`]) to prove that, after warm-up, the
//! `*_into` classification paths of an engine that runs its streams
//! inline never touch the heap — and that the engine does run them inline
//! when a lone stream is left or, by default, when its models sit below
//! the fan-out floor, as every engine here does. Below the engine, every
//! layer's Eval `forward_into` and every `_into` kernel is called on its
//! own, so the ones no model reaches are held too.
//! It is the only gate on that contract: DESIGN.md §12.4 maps each
//! function of the warm label path to the assertion here that reaches
//! it, and each entry point keeps its own assertion and message. The
//! counter is per thread, so the tests here run side by side and the
//! harness's own allocations stay out of every measurement.
//!
//! The same counter gates the controller's two sides: a frame read
//! allocates nothing and an aligned read once per call, not per frame or
//! grid point of history, and an IMU reading is
//! written as one TSDB row, allocating for growth only (DESIGN.md §18),
//! and so does a record appended to the WAL (DESIGN.md §13.1). The
//! fleet's pressure rollup allocates per shard, not per stream (DESIGN.md
//! §14.2).
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
    Batch, Controller, ControllerConfig, SensorReading, ShardConfig, ShardedController,
    StampedReading, StreamId, TsDb,
};
use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet_core::privacy::PrivacyLevel;
use darnet_core::registry::FAN_OUT_MIN_FLOPS;
use darnet_core::{
    ClassMap, CombinerKind, ImuSvm, MicroBatchConfig, MicroBatcher, ModalityDescriptor,
    ModalityStatus, MultiModalEngine, MultiStepClassification, NaryBayesianCombiner, StreamInput,
    StreamModelSlot,
};
use darnet_nn::{
    bilstm_classifier, softmax_inplace, AvgPool2d, BiLstm, Conv2d, Dense, Dropout, Flatten,
    InceptionBlock, InceptionChannels, Layer, LinearSvm, LstmCell, MaxPool2d, Mode, Relu,
    Sequential,
};
use darnet_sim::{Frame, ImuSample};
use darnet_tensor::{
    avg_pool2d_into, conv2d_into, im2col_into, matmul_transpose_b_slices_into, max_pool2d_into,
    Conv2dSpec, Parallelism, PoolSpec, SplitMix64, Tensor, Workspace,
};
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

/// The paper's pair fused by `kind`, [`CombinerKind::Product`] or
/// [`CombinerKind::CnnOnly`], neither of which reads a fitted combiner.
fn tiny_unfitted_pair(kind: CombinerKind) -> MultiModalEngine {
    let mut engine = MultiModalEngine::new(6, kind);
    engine
        .register(
            ModalityDescriptor::darnet_camera(),
            StreamModelSlot::Cnn(tiny_cnn(1)),
        )
        .expect("register camera");
    engine
        .register(
            ModalityDescriptor::darnet_imu(),
            StreamModelSlot::Rnn(tiny_rnn()),
        )
        .expect("register imu");
    engine
}

/// The contract for one call on its own: after two warm-up calls, a third
/// never touches the heap.
fn assert_warm_call_is_free(what: &str, mut call: impl FnMut()) {
    call();
    call();
    let ((), allocs) = alloc_counter::allocations_during(&mut call);
    assert_eq!(allocs, 0, "{what} allocated on a warm call");
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
    // The other two fusion rules: the product rule over the present
    // streams, and the camera's posterior alone.
    for kind in [CombinerKind::Product, CombinerKind::CnnOnly] {
        let name = format!("pair, {kind:?}");
        assert_steady_state(&name, &mut tiny_unfitted_pair(kind), &pair_paths);
    }

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
/// stream left to run is run inline.
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
/// only for calls heavy enough to pay for a hand-off. A default-constructed
/// 3-stream engine of the tiny models, with no `set_parallelism` call,
/// carries less than [`FAN_OUT_MIN_FLOPS`] over a whole batch, so a warm
/// full-batch call runs inline, starts no worker and allocates nothing on
/// any host.
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
    assert_eq!(registry.fanned_calls(), 0);
}

/// A call fanned out over two threads hands one group to the engine's
/// resident worker, started by the first fanned call and kept: a warm
/// fanned call allocates nothing on the caller's thread, at `n` steps and
/// at `2n`. (The worker's own allocations would land on its thread; its
/// models are held to 0 by the cases above.) `fanned_calls` proves the
/// calls fanned out, since a count of 0 is also what an inline call reads.
#[test]
fn a_warm_fanned_call_allocates_nothing() {
    let lightest = tiny_cnn(1)
        .flops_per_frame()
        .min(tiny_rnn().flops_per_window());
    let n = FAN_OUT_MIN_FLOPS.div_ceil(lightest);
    let mut engine = tiny_unfitted_pair(CombinerKind::Product);
    engine.set_parallelism(Parallelism::new(2));
    for n in [n, 2 * n] {
        let frames: Vec<Frame> = (0..n).map(|_| Frame::new(FRAME_SIZE, FRAME_SIZE)).collect();
        let windows = random_tensor(&[n, WINDOW_LEN, IMU_FEATURES], 14);
        let inputs = [
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::IMU, StreamInput::Windows(&windows)),
        ];
        let mut labels: Vec<MultiStepClassification> = Vec::new();
        let mut call = || {
            engine
                .classify_batch_into(&inputs, &mut labels)
                .expect("fanned batch");
        };
        call();
        call();
        let ((), allocs) = alloc_counter::allocations_during(call);
        assert_eq!(allocs, 0, "a warm {n}-step fanned call allocated");
        assert_eq!(labels.len(), n);
    }
    assert_eq!(
        engine.fanned_calls(),
        6,
        "a call ran inline, not fanned out"
    );
}

/// The Bayesian combiner's all-parents entry, which the engine does not
/// call: it fuses through `combine_subset_into` instead.
#[test]
fn combine_n_into_is_free_when_warm() {
    let mut combiner = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
    let (cnn, imu) = (
        Tensor::full(&[6, 6], 1.0 / 6.0),
        Tensor::full(&[6, 3], 1.0 / 3.0),
    );
    combiner
        .fit(&[&cnn, &imu], &[0, 1, 2, 3, 4, 5])
        .expect("combiner smoke fit");
    let mut scores = Vec::new();
    assert_warm_call_is_free("NaryBayesianCombiner::combine_n_into", || {
        let parents: [&[f32]; 2] = [&cnn.data()[..6], &imu.data()[..3]];
        combiner
            .combine_n_into(&parents, &mut scores)
            .expect("combine");
    });
}

/// (i) Below the engine: every `Layer` impl's Eval `forward_into` on a
/// warm workspace. The conv strides by 2 and one max pool is 3/2, so the
/// generic branches run, not only the model's shapes.
#[test]
fn every_layer_forward_into_is_free_when_warm() {
    let mut rng = SplitMix64::new(3);
    let image = random_tensor(&[2, 3, 9, 9], 21);
    let rows = random_tensor(&[2, 12], 22);
    let channels = InceptionChannels {
        c1: 2,
        c3_reduce: 2,
        c3: 3,
        c5_reduce: 1,
        c5: 2,
        pool_proj: 2,
    };
    let mut net = Sequential::new();
    net.push(Conv2d::square(3, 4, 3, 2, 1, &mut rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Flatten::new())
        .push(Dense::new(16, 5, &mut rng));
    let layers: Vec<(&str, Box<dyn Layer>, &Tensor)> = vec![
        ("Relu", Box::new(Relu::new()), &rows),
        ("Flatten", Box::new(Flatten::new()), &image),
        ("Dense", Box::new(Dense::new(12, 5, &mut rng)), &rows),
        ("Dropout", Box::new(Dropout::new(0.5, 7)), &rows),
        (
            "Conv2d, stride 2",
            Box::new(Conv2d::square(3, 4, 3, 2, 1, &mut rng)),
            &image,
        ),
        ("MaxPool2d 2/2", Box::new(MaxPool2d::new(2, 2)), &image),
        ("MaxPool2d 3/2", Box::new(MaxPool2d::new(3, 2)), &image),
        ("AvgPool2d", Box::new(AvgPool2d::new(3, 2)), &image),
        (
            "InceptionBlock",
            Box::new(InceptionBlock::new(3, channels, &mut rng)),
            &image,
        ),
        ("Sequential", Box::new(net), &image),
    ];
    for (name, mut layer, input) in layers {
        let mut ws = Workspace::new();
        assert_warm_call_is_free(name, || {
            let y = layer.forward_into(input, Mode::Eval, &mut ws).expect(name);
            ws.restore(y);
        });
    }
}

/// (i) The recurrent bodies, the SVM and the softmax, each called on its
/// own below the model slots that reach them.
#[test]
fn recurrent_svm_and_softmax_bodies_are_free_when_warm() {
    let mut rng = SplitMix64::new(4);
    let seq = random_tensor(&[2, 5, 6], 23);
    let mut ws = Workspace::new();
    let mut cell = LstmCell::new(6, 4, &mut rng);
    assert_warm_call_is_free("LstmCell::forward_seq_into", || {
        let h = cell
            .forward_seq_into(&seq, Mode::Eval, &mut ws)
            .expect("cell");
        ws.restore(h);
    });
    let mut bi = BiLstm::new(6, 4, &mut rng);
    assert_warm_call_is_free("BiLstm::forward_seq_into", || {
        let h = bi
            .forward_seq_into(&seq, Mode::Eval, &mut ws)
            .expect("bilstm");
        ws.restore(h);
    });
    let mut deep = bilstm_classifier(6, 4, 2, 3, &mut rng);
    assert_warm_call_is_free("bilstm_classifier forward_into", || {
        let logits = deep.forward_into(&seq, Mode::Eval, &mut ws).expect("deep");
        ws.restore(logits);
    });
    let (svm, x) = (LinearSvm::new(6, 3), random_tensor(&[2, 6], 24));
    let mut probs = Tensor::zeros(&[2, 3]);
    assert_warm_call_is_free("LinearSvm::predict_proba_into", || {
        svm.predict_proba_into(&x, &mut probs).expect("svm");
    });
    let mut logits = random_tensor(&[2, 3], 25);
    assert_warm_call_is_free("softmax_inplace", || {
        softmax_inplace(&mut logits).expect("softmax");
    });
}

/// (ii) The `_into` kernels, called directly: `matmul_transpose_b_into`
/// has no product caller and `im2col_into` runs only in Train, so nothing
/// above reaches them. The pools run at windows 2/2, 3/1 and 3/2, max
/// pooling with and without its argmax.
#[test]
fn kernels_are_free_when_warm() {
    let par = Parallelism::serial();
    let (a, b) = (random_tensor(&[5, 7], 31), random_tensor(&[4, 7], 32));
    let bias = random_tensor(&[5], 33);
    let mut product = Tensor::zeros(&[5, 4]);
    assert_warm_call_is_free("Tensor::matmul_transpose_b_into", || {
        a.matmul_transpose_b_into(&b, &par, &mut product)
            .expect("matmul");
    });
    assert_warm_call_is_free("matmul_transpose_b_slices_into", || {
        let dims = (5, 7, 4);
        matmul_transpose_b_slices_into(
            a.data(),
            b.data(),
            dims,
            Some(bias.data()),
            product.data_mut(),
        )
        .expect("slices");
    });

    let image = random_tensor(&[2, 3, 9, 9], 34);
    let spec = Conv2dSpec::square(3, 4, 3, 2, 1);
    let (weight, conv_bias) = (random_tensor(&[4, 27], 35), random_tensor(&[4], 36));
    let mut cols = Tensor::zeros(&[2 * 5 * 5, 27]);
    assert_warm_call_is_free("im2col_into", || {
        im2col_into(&image, &spec, &par, &mut cols).expect("im2col");
    });
    let mut conv = Tensor::zeros(&[2, 4, 5, 5]);
    let mut scratch = Tensor::zeros(&[spec.scratch_len(9, 9)]);
    assert_warm_call_is_free("conv2d_into", || {
        conv2d_into(&image, &spec, &weight, &conv_bias, &mut scratch, &mut conv).expect("conv");
    });
    for (window, stride) in [(2, 2), (3, 1), (3, 2)] {
        let pool = PoolSpec::new(window, stride);
        let (oh, ow) = pool.output_size(9, 9).expect("pool geometry");
        let mut pooled = Tensor::zeros(&[2, 3, oh, ow]);
        let mut argmax = Vec::new();
        assert_warm_call_is_free(
            &format!("max_pool2d_into {window}/{stride}, argmax"),
            || {
                max_pool2d_into(&image, &pool, &mut pooled, Some(&mut argmax)).expect("max");
            },
        );
        assert_warm_call_is_free(&format!("max_pool2d_into {window}/{stride}"), || {
            max_pool2d_into(&image, &pool, &mut pooled, None).expect("max");
        });
        assert_warm_call_is_free(&format!("avg_pool2d_into {window}/{stride}"), || {
            avg_pool2d_into(&image, &pool, &mut pooled).expect("avg");
        });
    }

    let mut joined = Tensor::zeros(&[5, 14]);
    assert_warm_call_is_free("Tensor::concat_into", || {
        Tensor::concat_into(&[&a, &a], 1, &mut joined).expect("concat");
    });
    let mut copy = Tensor::zeros(&[5, 7]);
    assert_warm_call_is_free("Tensor::copy_into", || {
        a.copy_into(&mut copy).expect("copy");
    });
    assert_warm_call_is_free("Tensor::map_into", || {
        a.map_into(|v| v * 0.5, &mut copy).expect("map");
    });
    let row_bias = random_tensor(&[7], 37);
    assert_warm_call_is_free("Tensor::add_row_broadcast_assign", || {
        copy.add_row_broadcast_assign(&row_bias).expect("broadcast");
    });
}

/// The read side's regression gate: counts repeat exactly where timings
/// do not. A frame read lends out the stream's own frames, so it costs no
/// allocation event over a 64-frame history or a 1 024-frame one, and
/// handing a frame of the result on to a warm micro-batcher costs none.
#[test]
fn frame_reads_allocate_per_call_not_per_frame() {
    const EDGE: usize = 48;
    let controller = |history: usize| {
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
        controller
    };
    let (short, long) = (controller(2 * 64), controller(2 * 1024));
    for (controller, history) in [(&short, 64), (&long, 1024)] {
        let (frames, allocs) = alloc_counter::allocations_during(|| {
            controller.frames_sorted_for(StreamId::CAMERA_FRONT)
        });
        assert_eq!(frames.len(), history);
        assert_eq!(allocs, 0, "a frame read over {history} frames allocated");
    }
    let frames = long.frames_sorted_for(StreamId::CAMERA_FRONT);

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

/// The aligned read's gate, as a count. The grid cache keeps its points
/// as `Copy` rows, so a warm `aligned_imu` over 64 grid points of history
/// and over 1 024 costs the same single allocation event: the result
/// `Vec`.
#[test]
fn aligned_reads_allocate_per_call_not_per_point() {
    let read = |points: usize| {
        let mut controller = Controller::new(ControllerConfig::default());
        // 32 Hz readings (exact binary stamps) spanning `points` grid
        // points at the default 4 Hz.
        let readings = (points - 1) * 8 + 1;
        let batch = Batch {
            agent_id: StreamId::IMU.agent_id(),
            seq: 0,
            readings: (0..readings)
                .map(|i| StampedReading {
                    timestamp: i as f64 / 32.0,
                    reading: SensorReading::Imu(ImuSample::from_features(&[i as f32; 12])),
                })
                .collect(),
        };
        controller.offer_at(0.0, &batch, None).expect("offer");
        // Warm: the first read builds the grid cache.
        assert_eq!(controller.aligned_imu().expect("aligned").len(), points);
        let (aligned, allocs) = alloc_counter::allocations_during(|| controller.aligned_imu());
        assert_eq!(aligned.expect("aligned").len(), points);
        allocs
    };
    let short = read(64);
    assert_eq!(
        short,
        read(1024),
        "an aligned read allocates per grid point"
    );
    assert!(short <= 1, "an aligned read allocated {short} times");
}

/// The write side's gate, again as a count. An IMU reading reaches the
/// one store that keeps it as one row of the series its stream found when
/// it first appeared, so in-order readings into a warm controller
/// allocate only when the stamp and value buffers (and the batch's
/// seen-set) grow — logged and fanned out over twelve named series it was
/// 13 events or more per reading. Per-agent keys cost the same.
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

/// The gate on making a series, as a count. A new row series is found
/// free of its channel names by one ordered probe of the scalars under
/// its prefix, so making one among 2 000 others, next to scalars under
/// that very prefix, allocates as often 12 wide as 1 wide: asking for
/// each channel by a formatted name was one more event per channel.
#[test]
fn a_new_series_allocates_the_same_at_any_width() {
    let create = |width: usize| {
        let db = TsDb::new();
        for agent in 0..1000 {
            db.insert_vector(&format!("imu.{agent}"), 0.0, &[1.0; 12]);
            db.insert(&format!("camera.mean_intensity.{agent}"), 0.0, 0.5);
        }
        // Under and beside the prefix `imu.1000.`, and none of them a
        // channel of a row 12 wide.
        let neighbours = [
            "imu.1000.12",
            "imu.1000.01",
            "imu.1000.0.1",
            "imu.1000-0",
            "imu.10000.0",
            "imu.1001.0",
        ];
        for name in neighbours {
            db.insert(name, 0.0, 1.0);
        }
        let values = vec![1.0f32; width];
        let ((), allocs) =
            alloc_counter::allocations_during(|| db.insert_vector("imu.1000", 0.5, &values));
        for k in 0..width {
            assert_eq!(db.len(&format!("imu.1000.{k}")), 1);
        }
        assert_eq!(db.len("imu.1000.12"), 1);
        allocs
    };
    let narrow = create(1);
    assert_eq!(create(12), narrow, "a new series allocates per channel");
}

/// The fleet rollup's gate, as a count. `pressure()` reads each shard's
/// running shed total, so over 10 streams and over 1 000 it allocates the
/// same: its row per shard. It used to sum a health report built per
/// stream.
#[test]
fn pressure_allocates_per_shard_not_per_stream() {
    let allocs = |streams: u32| {
        let mut sharded = ShardedController::new(ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        })
        .expect("config");
        for agent_id in 0..streams {
            let batch = Batch {
                agent_id,
                seq: 0,
                readings: vec![StampedReading {
                    timestamp: 0.0,
                    reading: SensorReading::Imu(ImuSample::from_features(&[1.0; 12])),
                }],
            };
            sharded.offer_at(0.0, &batch);
        }
        assert_eq!(sharded.drain().expect("drain").len(), streams as usize);
        assert_eq!(sharded.stream_healths().len(), streams as usize);
        let (pressure, allocs) = alloc_counter::allocations_during(|| sharded.pressure());
        assert_eq!(pressure.shards.len(), 2);
        allocs
    };
    let few = allocs(10);
    assert_eq!(few, allocs(1000), "pressure() allocates per stream");
    assert!(few <= 1, "pressure() allocated {few} times");
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
