//! Property-based tests for the analytics engine: confusion-matrix and
//! combiner invariants, privacy arithmetic, batched-inference equivalence,
//! and the engine's bitwise fidelity to its models' allocating posteriors
//! fused outside it.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use darnet_collect::StreamId;
use darnet_core::dataset::{frames_to_tensor, IMU_FEATURES, WINDOW_LEN};
use darnet_core::privacy::{Downsampler, PrivacyLevel};
use darnet_core::registry::{product_combine_subset_into, FAN_OUT_MIN_FLOPS};
use darnet_core::{
    ClassMap, CnnConfig, CombinerKind, ConfusionMatrix, FrameCnn, ImuRnn, ModalityDescriptor,
    MultiModalEngine, NaryBayesianCombiner, RnnConfig, StreamInput, StreamModelSlot,
};
use darnet_sim::Frame;
use darnet_tensor::{Parallelism, SplitMix64, Tensor};
use proptest::prelude::*;

fn prob_row(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.01f32..1.0, n).prop_map(|v| {
        let s: f32 = v.iter().sum();
        v.into_iter().map(|x| x / s).collect()
    })
}

/// Exact-representation view for bitwise comparisons.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_tensor(dims: &[usize], rng: &mut SplitMix64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.uniform(0.01, 1.0);
    }
    t
}

/// The batch length at which the lightest of `slots` alone carries
/// [`FAN_OUT_MIN_FLOPS`]: from there on an engine over them fans its
/// streams out whenever it has the threads. These tests' models are far
/// below cabin scale, so a short batch would run inline on either side.
fn fanned_batch(slots: &[StreamModelSlot]) -> usize {
    let lightest = slots.iter().map(StreamModelSlot::flops_per_sample).min();
    FAN_OUT_MIN_FLOPS.div_ceil(lightest.unwrap_or(1))
}

/// The pair combiner (parents `[cnn, imu]`) fitted on random posteriors.
fn fitted_pair(n: usize, alpha: f32, seed: u64) -> darnet_core::Result<NaryBayesianCombiner> {
    let mut rng = SplitMix64::new(seed);
    let cnn = random_tensor(&[n, 6], &mut rng);
    let imu = random_tensor(&[n, 3], &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 6).collect();
    let mut comb = NaryBayesianCombiner::new(6, vec![6, 3], alpha);
    comb.fit(&[&cnn, &imu], &labels)?;
    Ok(comb)
}

/// The pair product rule through the one product combiner.
fn pair_product(cnn_row: &[f32], imu_row: &[f32]) -> darnet_core::Result<Vec<f32>> {
    let (camera, imu_map) = (ClassMap::Identity, ClassMap::darnet_imu());
    let mut scores = Vec::new();
    product_combine_subset_into(
        &[(Some(cnn_row), &camera), (Some(imu_row), &imu_map)],
        6,
        &mut scores,
    )?;
    Ok(scores)
}

proptest! {
    #[test]
    fn confusion_matrix_row_sums_match_label_counts(
        pairs in prop::collection::vec((0usize..4, 0usize..4), 1..100)
    ) {
        let labels: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let preds: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let m = ConfusionMatrix::from_predictions(&labels, &preds, 4).unwrap();
        prop_assert_eq!(m.total(), pairs.len());
        for i in 0..4 {
            let row: usize = (0..4).map(|j| m.count(i, j).unwrap()).sum();
            let expected = labels.iter().filter(|&&l| l == i).count();
            prop_assert_eq!(row, expected);
        }
        prop_assert!((0.0..=1.0).contains(&m.accuracy()));
    }

    #[test]
    fn bayesian_cpt_is_normalized_after_any_fit(
        labels in prop::collection::vec(0usize..3, 10..60),
        seed in 0u64..100,
    ) {
        let n = labels.len();
        let mut rng = darnet_tensor::SplitMix64::new(seed);
        let mut cnn = Tensor::zeros(&[n, 3]);
        for v in cnn.data_mut() { *v = rng.uniform(0.01, 1.0); }
        let mut imu = Tensor::zeros(&[n, 2]);
        for v in imu.data_mut() { *v = rng.uniform(0.01, 1.0); }
        let mut comb = NaryBayesianCombiner::new(3, vec![3, 2], 1.0);
        comb.fit(&[&cnn, &imu], &labels).unwrap();
        // One-hot parents read column (a, b) of the table back; fusion
        // divides by the column's sum, so each entry must survive it.
        for a in 0..3 {
            for b in 0..2 {
                let (mut pa, mut pb) = ([0.0f32; 3], [0.0f32; 2]);
                (pa[a], pb[b]) = (1.0, 1.0);
                let column = comb.combine_n(&[&pa, &pb]).unwrap();
                let total: f32 = column.iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-4);
                prop_assert!(column.iter().all(|&v| v > 0.0 && v < 1.0));
            }
        }
    }

    #[test]
    fn combined_scores_are_distributions(
        labels in prop::collection::vec(0usize..3, 20..50),
        cnn_row in prob_row(3),
        imu_row in prob_row(2),
        seed in 0u64..50,
    ) {
        let n = labels.len();
        let mut rng = darnet_tensor::SplitMix64::new(seed);
        let mut cnn = Tensor::zeros(&[n, 3]);
        for v in cnn.data_mut() { *v = rng.uniform(0.01, 1.0); }
        let mut imu = Tensor::zeros(&[n, 2]);
        for v in imu.data_mut() { *v = rng.uniform(0.01, 1.0); }
        let mut comb = NaryBayesianCombiner::new(3, vec![3, 2], 0.5);
        comb.fit(&[&cnn, &imu], &labels).unwrap();
        let scores = comb.combine_n(&[&cnn_row, &imu_row]).unwrap();
        let sum: f32 = scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(scores.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn product_combiner_outputs_distribution(cnn_row in prob_row(6), imu_row in prob_row(3)) {
        let scores = pair_product(&cnn_row, &imu_row).unwrap();
        let sum: f32 = scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        // The frozen pair formula: `cnn[c] · max(imu[imu_class(c)], 1e-6)`.
        let m = [0usize, 1, 2, 0, 0, 0];
        let mut want: Vec<f32> = (0..6).map(|c| cnn_row[c] * imu_row[m[c]].max(1e-6)).collect();
        let total: f32 = want.iter().sum();
        want.iter_mut().for_each(|v| *v /= total);
        prop_assert_eq!(bits(&want), bits(&scores));
    }

    #[test]
    fn batched_inference_matches_per_item(n in 1usize..6, seed in 0u64..20) {
        let mut cnn = FrameCnn::new(
            CnnConfig {
                input_size: 12,
                classes: 3,
                width: 0.25,
                ..CnnConfig::default()
            },
            seed,
        );
        let mut rng = SplitMix64::new(seed ^ 0xABCD);
        let mut frames = Tensor::zeros(&[n, 1, 12, 12]);
        for v in frames.data_mut() { *v = rng.uniform(0.0, 1.0); }
        let batch = cnn.predict_proba(&frames).unwrap();
        let img = 12 * 12;
        for i in 0..n {
            let single = Tensor::from_vec(
                frames.data()[i * img..(i + 1) * img].to_vec(),
                &[1, 1, 12, 12],
            ).unwrap();
            let p = cnn.predict_proba(&single).unwrap();
            // Bitwise: batching must not change any item's posterior.
            prop_assert_eq!(&batch.data()[i * 3..(i + 1) * 3], p.data());
        }
    }

    /// A frame's and a window's posterior row has the same bits alone and at
    /// any place in a batch of 2–9, through the zero-alloc `_into` paths the
    /// engine calls: no product, conv or pool mixes a row with its batch.
    /// 20×20 frames give feature maps of 20, 10 and 5 columns, so conv
    /// panels end mid-row and span rows.
    #[test]
    fn a_row_has_the_same_bits_alone_and_in_any_batch(
        n in 2usize..=9, at in 0usize..9, seed in 0u64..20,
    ) {
        let at = at % n;
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let (size, classes) = (20, 4);
        let mut cnn = FrameCnn::new(
            CnnConfig { input_size: size, classes, width: 0.5, ..CnnConfig::default() },
            seed,
        );
        let frames = random_tensor(&[n, 1, size, size], &mut rng);
        let img = size * size;
        let frame = Tensor::from_vec(frames.data()[at * img..][..img].to_vec(), &[1, 1, size, size]).unwrap();
        let (mut batch, mut alone) = (Vec::new(), Vec::new());
        cnn.predict_proba_into(&frames, &mut batch).unwrap();
        cnn.predict_proba_into(&frame, &mut alone).unwrap();
        prop_assert_eq!(bits(&batch[at * classes..][..classes]), bits(&alone));

        let mut rnn = ImuRnn::new(RnnConfig { hidden: 5, ..RnnConfig::default() }, seed ^ 0x22);
        let (mean, std) = (random_tensor(&[IMU_FEATURES], &mut rng), random_tensor(&[IMU_FEATURES], &mut rng));
        rnn.set_standardizer_params(&mean, &std).unwrap();
        let windows = random_tensor(&[n, WINDOW_LEN, IMU_FEATURES], &mut rng);
        let row = WINDOW_LEN * IMU_FEATURES;
        let window = Tensor::from_vec(windows.data()[at * row..][..row].to_vec(), &[1, WINDOW_LEN, IMU_FEATURES]).unwrap();
        let classes = rnn.config().classes;
        rnn.predict_proba_into(&windows, &mut batch).unwrap();
        rnn.predict_proba_into(&window, &mut alone).unwrap();
        prop_assert_eq!(bits(&batch[at * classes..][..classes]), bits(&alone));
    }

    #[test]
    fn pair_subset_fusion_is_bitwise_the_dense_product(
        n in 12usize..40,
        alpha in 0.1f32..2.0,
        seed in 0u64..200,
        cnn_row in prob_row(6),
        imu_row in prob_row(3),
    ) {
        let pair = fitted_pair(n, alpha, seed).unwrap();
        let full = pair.combine_n(&[&cnn_row, &imu_row]).unwrap();
        let mut subset = Vec::new();
        pair.combine_subset_into(
            &[Some(cnn_row.as_slice()), Some(imu_row.as_slice())],
            &mut subset,
        ).unwrap();
        prop_assert_eq!(bits(&full), bits(&subset));
    }

    #[test]
    fn class_map_expansions_match_legacy_fallback_posteriors(
        cnn_row in prob_row(6),
        imu_row in prob_row(3),
    ) {
        // CNN-only fallback: the posterior passes through verbatim.
        let mut scores = Vec::new();
        ClassMap::Identity.expand_into(&cnn_row, 6, &mut scores).unwrap();
        prop_assert_eq!(bits(&cnn_row), bits(&scores));
        // IMU-only fallback, frozen legacy formula: fan each IMU class's
        // mass uniformly across its preimage, then normalize.
        let m = [0usize, 1, 2, 0, 0, 0];
        let mut want: Vec<f32> = (0..6)
            .map(|c| {
                let fanout = m.iter().filter(|&&x| x == m[c]).count() as f32;
                imu_row[m[c]] / fanout
            })
            .collect();
        let total: f32 = want.iter().sum();
        if total > 0.0 {
            for v in &mut want {
                *v /= total;
            }
        }
        ClassMap::darnet_imu().expand_into(&imu_row, 6, &mut scores).unwrap();
        prop_assert_eq!(bits(&want), bits(&scores));
    }

    #[test]
    fn nary_subset_marginalization_stays_normalized(
        seed in 0u64..100,
        p0 in prob_row(3),
        p1 in prob_row(6),
        p2 in prob_row(6),
    ) {
        let n = 30;
        let mut rng = SplitMix64::new(seed ^ 0x3AB1);
        let t0 = random_tensor(&[n, 3], &mut rng);
        let t1 = random_tensor(&[n, 6], &mut rng);
        let t2 = random_tensor(&[n, 6], &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 6).collect();
        let mut comb = NaryBayesianCombiner::new(6, vec![3, 6, 6], 1.0);
        comb.fit(&[&t0, &t1, &t2], &labels).unwrap();
        // The all-present subset is exactly the dense N-ary product.
        let full = comb.combine_n(&[&p0, &p1, &p2]).unwrap();
        let mut scores = Vec::new();
        comb.combine_subset_into(
            &[Some(p0.as_slice()), Some(p1.as_slice()), Some(p2.as_slice())],
            &mut scores,
        ).unwrap();
        prop_assert_eq!(bits(&full), bits(&scores));
        // Every non-empty subset still yields a distribution.
        let rows = [p0.as_slice(), p1.as_slice(), p2.as_slice()];
        for mask in 1usize..8 {
            let parents: Vec<Option<&[f32]>> = rows
                .iter()
                .enumerate()
                .map(|(i, p)| if mask & (1 << i) != 0 { Some(*p) } else { None })
                .collect();
            comb.combine_subset_into(&parents, &mut scores).unwrap();
            let sum: f32 = scores.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "mask {}: sum {}", mask, sum);
            prop_assert!(scores.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn privacy_arithmetic_is_consistent(full in 12usize..600) {
        for level in PrivacyLevel::ALL {
            let target = level.target_size(full);
            prop_assert!(target >= 1);
            prop_assert!(target <= full);
            // Reduction factor equals divisor squared.
            prop_assert_eq!(level.data_reduction(), level.divisor() * level.divisor());
        }
        // Higher levels never have more pixels.
        prop_assert!(PrivacyLevel::Low.target_size(full) >= PrivacyLevel::Medium.target_size(full));
        prop_assert!(PrivacyLevel::Medium.target_size(full) >= PrivacyLevel::High.target_size(full));
    }
}

proptest! {
    // Each case trains a (tiny) RNN, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine's contract: `classify_batch_into` on the paper's pair
    /// equals each model's allocating `predict_proba` — on fresh
    /// weight-identical models, sharing no workspace with the engine —
    /// fused outside it by `combine_n` / the product rule / the camera
    /// expansion, for every combiner kind, streams inline or fanned out:
    /// the batch is sized past the fan-out floor, so any count above one
    /// thread really runs a worker.
    #[test]
    fn pair_engine_matches_posteriors_fused_outside_it(
        extra in 0usize..3,
        threads in 1usize..4,
        seed in 0u64..50,
        kind_idx in 0usize..3,
    ) {
        let kind = [CombinerKind::Bayesian, CombinerKind::Product, CombinerKind::CnnOnly][kind_idx];
        let size = 16;
        let cnn_config = CnnConfig {
            input_size: size,
            classes: 6,
            width: 0.25,
            ..CnnConfig::default()
        };
        let rnn_config = RnnConfig {
            hidden: 4,
            depth: 1,
            ..RnnConfig::default()
        };
        // Models are rebuilt from the same seeds and fit data, so the
        // engine and the reference own weight-identical copies.
        let mut rng = SplitMix64::new(seed ^ 0x1234);
        let fit_windows = random_tensor(&[9, WINDOW_LEN, IMU_FEATURES], &mut rng);
        let fit_labels: Vec<usize> = (0..9).map(|i| i % 3).collect();
        let make_cnn = || FrameCnn::new(cnn_config, seed ^ 0x11);
        let make_rnn = || {
            let mut rnn = ImuRnn::new(rnn_config, seed ^ 0x22);
            rnn.fit(&fit_windows, &fit_labels, 1).unwrap();
            rnn
        };
        let combiner = fitted_pair(24, 1.0, seed ^ 0x77).unwrap();
        let n = fanned_batch(&[StreamModelSlot::Cnn(make_cnn()), StreamModelSlot::Rnn(make_rnn())]) + extra;

        let mut engine = MultiModalEngine::darnet_pair(
            kind,
            make_cnn(),
            StreamModelSlot::Rnn(make_rnn()),
            combiner.clone(),
        )
        .unwrap();
        engine.set_parallelism(Parallelism::new(threads));

        let frames: Vec<Frame> = (0..n)
            .map(|_| {
                let pixels: Vec<f32> = (0..size * size).map(|_| rng.uniform(0.0, 1.0)).collect();
                Frame::from_pixels(size, size, pixels)
            })
            .collect();
        let windows = random_tensor(&[n, WINDOW_LEN, IMU_FEATURES], &mut rng);

        let cnn_probs = make_cnn().predict_proba(&frames_to_tensor(&frames).unwrap()).unwrap();
        let imu_probs = make_rnn().predict_proba(&windows).unwrap();
        let mut got = Vec::new();
        engine
            .classify_batch_into(
                &[
                    (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
                    (StreamId::IMU, StreamInput::Windows(&windows)),
                ],
                &mut got,
            )
            .unwrap();
        prop_assert_eq!(got.len(), n);
        let rows = cnn_probs.data().chunks(6).zip(imu_probs.data().chunks(3));
        for (g, (cnn_row, imu_row)) in got.iter().zip(rows) {
            let mut want = Vec::new();
            match kind {
                CombinerKind::Bayesian => want = combiner.combine_n(&[cnn_row, imu_row]).unwrap(),
                CombinerKind::Product => want = pair_product(cnn_row, imu_row).unwrap(),
                CombinerKind::CnnOnly => ClassMap::Identity.expand_into(cnn_row, 6, &mut want).unwrap(),
            }
            prop_assert_eq!(bits(&want), bits(&g.scores));
            let best = want.iter().copied().fold(0.0f32, f32::max);
            prop_assert_eq!(best.to_bits(), want[g.class].to_bits());
        }
    }

    /// A dCNN student on a stream worker: IMU, a distorted front batch the
    /// engine routes to the front camera's student, and the side camera,
    /// fanned out across workers (the batch sized past the fan-out floor)
    /// and inline. Both engines must give the
    /// same labels, and both must be each model's allocating posterior —
    /// the student's on the restored frames — fused outside the engine;
    /// each stream on its own gives that stream's posterior verbatim.
    #[test]
    fn fanned_out_engine_with_a_student_route_is_bitwise_inline(
        extra in 0usize..3,
        seed in 0u64..50,
        level_idx in 0usize..3,
    ) {
        let level = PrivacyLevel::ALL[level_idx];
        let size = 16;
        let cnn = |seed: u64| {
            let config = CnnConfig { input_size: size, classes: 6, width: 0.25, ..CnnConfig::default() };
            FrameCnn::new(config, seed)
        };
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let fit_windows = random_tensor(&[9, WINDOW_LEN, IMU_FEATURES], &mut rng);
        let fit_labels: Vec<usize> = (0..9).map(|i| i % 3).collect();
        let make_rnn = || {
            let mut rnn = ImuRnn::new(RnnConfig { hidden: 4, depth: 1, ..RnnConfig::default() }, seed ^ 0x22);
            rnn.fit(&fit_windows, &fit_labels, 1).unwrap();
            rnn
        };
        let (front, side, student) = (seed ^ 0x11, seed ^ 0x33, seed ^ 0x44);
        let parents = [
            random_tensor(&[24, 3], &mut rng),
            random_tensor(&[24, 6], &mut rng),
            random_tensor(&[24, 6], &mut rng),
        ];
        let labels: Vec<usize> = (0..24).map(|i| i % 6).collect();
        let mut combiner = NaryBayesianCombiner::new(6, vec![3, 6, 6], 1.0);
        combiner.fit(&[&parents[0], &parents[1], &parents[2]], &labels).unwrap();
        let n = fanned_batch(&[StreamModelSlot::Rnn(make_rnn()), StreamModelSlot::Cnn(cnn(front))]) + extra;
        let engine = |par: Parallelism| {
            let mut engine = MultiModalEngine::new(6, CombinerKind::Bayesian);
            let side_camera = ModalityDescriptor::new(StreamId::CAMERA_SIDE, ClassMap::Identity);
            engine.register(ModalityDescriptor::darnet_imu(), StreamModelSlot::Rnn(make_rnn())).unwrap();
            engine.register(ModalityDescriptor::darnet_camera(), StreamModelSlot::Cnn(cnn(front))).unwrap();
            engine.register(side_camera, StreamModelSlot::Cnn(cnn(side))).unwrap();
            engine.register_dcnn(StreamId::CAMERA_FRONT, level, cnn(student)).unwrap();
            engine.set_combiner(combiner.clone()).unwrap();
            engine.set_parallelism(par);
            engine
        };
        let mut frames = || -> Vec<Frame> {
            (0..n)
                .map(|_| Frame::from_pixels(size, size, (0..size * size).map(|_| rng.uniform(0.0, 1.0)).collect()))
                .collect()
        };
        let (front_full, side_frames) = (frames(), frames());
        let downsampler = Downsampler::new(size);
        let distorted: Vec<Frame> = front_full.iter().map(|f| downsampler.distort(f, level)).collect();
        let windows = random_tensor(&[n, WINDOW_LEN, IMU_FEATURES], &mut rng);
        let inputs = [
            (StreamId::IMU, StreamInput::Windows(&windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&distorted)),
            (StreamId::CAMERA_SIDE, StreamInput::Frames(&side_frames)),
        ];

        let (mut inline, mut fanned) = (engine(Parallelism::serial()), engine(Parallelism::new(4)));
        let (mut want, mut got) = (Vec::new(), Vec::new());
        inline.classify_batch_into(&inputs, &mut want).unwrap();
        fanned.classify_batch_into(&inputs, &mut got).unwrap();
        prop_assert_eq!(&got, &want);

        let posteriors = [
            make_rnn().predict_proba(&windows).unwrap(),
            cnn(student).predict_proba(&downsampler.roundtrip_tensor(&front_full, level).unwrap()).unwrap(),
            cnn(side).predict_proba(&frames_to_tensor(&side_frames).unwrap()).unwrap(),
        ];
        let row = |p: usize, i: usize| {
            let k = posteriors[p].dims()[1];
            &posteriors[p].data()[i * k..(i + 1) * k]
        };
        for (i, step) in got.iter().enumerate() {
            let fused = combiner.combine_n(&[row(0, i), row(1, i), row(2, i)]).unwrap();
            prop_assert_eq!(bits(&fused), bits(&step.scores));
        }
        // Each camera alone is its own posterior, verbatim.
        for (p, input) in [(1, inputs[1]), (2, inputs[2])] {
            fanned.classify_batch_into(&[input], &mut got).unwrap();
            inline.classify_batch_into(&[input], &mut want).unwrap();
            prop_assert_eq!(&got, &want);
            for (i, step) in got.iter().enumerate() {
                prop_assert_eq!(bits(row(p, i)), bits(&step.scores));
            }
        }
    }
}
