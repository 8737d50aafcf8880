//! Golden digests of seeded two-stream fusion.
//!
//! Every other bitwise test in this crate compares two computations of
//! the same binary (the engine against `predict_proba` + the combiner),
//! so none of them can see a refactor that changes what both compute.
//! These digests are pinned constants over the DarNet pair — camera CNN
//! (6 classes) + IMU model (3 classes): the fitted CPT, the Bayesian /
//! product / CNN-only fused scores, the single-survivor expansions, a
//! seeded tiny engine's batch and private-frame outputs, and the
//! confusion matrices behind Table 2 — and, below the models, the two
//! labelled datasets a seeded campaign turns into (pair and 3-stream).
//! If one fails, the arithmetic or a seed's draw order moved: fix the
//! code, don't re-pin.

// The helpers below are not #[test] fns themselves, so clippy's
// allow-unwrap-in-tests does not reach them; a failed unwrap here IS the
// test failing.
#![allow(clippy::unwrap_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use std::sync::Arc;

use darnet_collect::runtime::{pair_frames_with_windows, run_campaign, CampaignConfig};
use darnet_collect::{LinkConfig, StreamId};
use darnet_core::dataset::{Dataset, IMU_FEATURES, WINDOW_LEN};
use darnet_core::experiment::{
    run_ablation_combiner, table2_from_stack, train_stack_on, ExperimentConfig,
};
use darnet_core::privacy::{Downsampler, PrivacyLevel};
use darnet_core::registry::product_combine_subset_into;
use darnet_core::{
    CnnConfig, CombinerKind, ConfusionMatrix, FrameCnn, ImuRnn, ModalityDescriptor, ModalityStatus,
    MultiModalEngine, MultiStepClassification, NaryBayesianCombiner, RnnConfig, StreamInput,
    StreamModelSlot,
};
use darnet_sim::schedule::{build_schedule, ScheduleConfig};
use darnet_sim::{
    CanonicalBehavior, DriverProfile, DrivingWorld, Frame, FrameRenderer, WorldConfig,
};
use darnet_tensor::{SplitMix64, Tensor};

/// FNV-1a accumulator over the little-endian bytes of whatever is fed in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn index(&mut self, i: usize) {
        self.bytes(&(i as u64).to_le_bytes());
    }

    fn scores(&mut self, scores: &[f32]) {
        self.index(scores.len());
        for v in scores {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Holds a digest to its pinned value, reporting both in hex.
fn pin(got: u64, want: u64, what: &str) {
    assert_eq!(got, want, "{what}: got {got:#018X}, pinned {want:#018X}");
}

/// `n` seeded posterior rows of `width` classes, each normalized; with
/// `zeros`, a fifth of the entries are exactly `0.0` (the combiner's
/// zero-weight skips must not move a bit either).
fn posterior_rows(rng: &mut SplitMix64, n: usize, width: usize, zeros: bool) -> Tensor {
    let mut t = Tensor::zeros(&[n, width]);
    for row in t.data_mut().chunks_mut(width) {
        for v in row.iter_mut() {
            *v = if zeros && rng.next_f64() < 0.2 {
                0.0
            } else {
                rng.next_f64() as f32
            };
        }
        let total: f32 = row.iter().sum();
        if total > 0.0 {
            for v in row.iter_mut() {
                *v /= total;
            }
        }
    }
    t
}

/// The pair combiner fitted on 64 seeded observations.
fn fitted_pair_combiner() -> NaryBayesianCombiner {
    let mut rng = SplitMix64::new(0x17A5);
    let cnn = posterior_rows(&mut rng, 64, 6, false);
    let imu = posterior_rows(&mut rng, 64, 3, false);
    let labels: Vec<usize> = (0..64).map(|_| rng.next_usize(6)).collect();
    let mut combiner = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
    combiner.fit(&[&cnn, &imu], &labels).unwrap();
    combiner
}

/// The pair's Bayesian fusion of one sample.
fn bayes_fuse(combiner: &NaryBayesianCombiner, cnn: &[f32], imu: &[f32]) -> Vec<f32> {
    combiner.combine_n(&[cnn, imu]).unwrap()
}

/// The pair's product-rule fusion of one sample.
fn product_fuse(cnn: &[f32], imu: &[f32]) -> Vec<f32> {
    let (camera, imu_desc) = (
        ModalityDescriptor::darnet_camera(),
        ModalityDescriptor::darnet_imu(),
    );
    let parents = [
        (Some(cnn), &camera.class_map),
        (Some(imu), &imu_desc.class_map),
    ];
    let mut scores = Vec::new();
    product_combine_subset_into(&parents, 6, &mut scores).unwrap();
    scores
}

#[test]
fn pair_cpt_fit_digest() {
    // One-hot parents read the fitted table back a column at a time:
    // `score(c) = CPT_c[a][b]` up to the final normalization.
    let combiner = fitted_pair_combiner();
    let mut h = Fnv::new();
    for a in 0..6 {
        for b in 0..3 {
            let mut cnn = [0.0f32; 6];
            let mut imu = [0.0f32; 3];
            cnn[a] = 1.0;
            imu[b] = 1.0;
            h.scores(&bayes_fuse(&combiner, &cnn, &imu));
        }
    }
    pin(h.0, 0x7729_2F3A_1299_0B69, "pair CPT fit");
}

#[test]
fn pair_fused_scores_digest() {
    let combiner = fitted_pair_combiner();
    let mut rng = SplitMix64::new(99);
    let cnn = posterior_rows(&mut rng, 48, 6, true);
    let imu = posterior_rows(&mut rng, 48, 3, true);
    let (mut bayes, mut product) = (Fnv::new(), Fnv::new());
    for (c, m) in cnn.data().chunks(6).zip(imu.data().chunks(3)) {
        bayes.scores(&bayes_fuse(&combiner, c, m));
        product.scores(&product_fuse(c, m));
    }
    pin(bayes.0, 0xB444_3CA0_0AA7_E077, "Bayesian fused scores");
    pin(product.0, 0xEA0E_A9D6_97B6_37E3, "product fused scores");
}

const FRAME: usize = 24;

fn tiny_cnn(seed: u64) -> FrameCnn {
    let config = CnnConfig {
        input_size: FRAME,
        classes: 6,
        width: 0.5,
        ..CnnConfig::default()
    };
    FrameCnn::new(config, seed)
}

/// A seeded batch: rendered frames of cycling behaviours and windows of
/// seeded noise.
fn tiny_batch(n: usize) -> (Vec<Frame>, Tensor) {
    let renderer = FrameRenderer::new(7).with_size(FRAME);
    let driver = DriverProfile::generate(0, 42);
    let frames = (0..n)
        .map(|i| renderer.render(&driver, CanonicalBehavior::TABLE1[i % 6], i as f64 * 0.31))
        .collect();
    let mut rng = SplitMix64::new(0xBA7C);
    let mut windows = Tensor::zeros(&[n, WINDOW_LEN, IMU_FEATURES]);
    for v in windows.data_mut() {
        *v = rng.uniform(-1.0, 1.0);
    }
    (frames, windows)
}

fn window_row(windows: &Tensor, i: usize) -> Tensor {
    let row = WINDOW_LEN * IMU_FEATURES;
    Tensor::from_vec(
        windows.data()[i * row..(i + 1) * row].to_vec(),
        &[1, WINDOW_LEN, IMU_FEATURES],
    )
    .unwrap()
}

/// The seeded tiny pair engine: a half-width CNN, a 4-unit BiLSTM after
/// one epoch on seeded windows, and [`fitted_pair_combiner`].
fn tiny_engine(kind: CombinerKind) -> MultiModalEngine {
    let rnn_config = RnnConfig {
        hidden: 4,
        depth: 1,
        ..RnnConfig::default()
    };
    let mut rnn = ImuRnn::new(rnn_config, 2);
    let mut rng = SplitMix64::new(0xF17);
    let mut x = Tensor::zeros(&[9, WINDOW_LEN, IMU_FEATURES]);
    for v in x.data_mut() {
        *v = rng.uniform(-1.0, 1.0);
    }
    rnn.fit(&x, &[0, 1, 2, 0, 1, 2, 0, 1, 2], 1).unwrap();
    let imu = StreamModelSlot::Rnn(rnn);
    MultiModalEngine::darnet_pair(kind, tiny_cnn(1), imu, fitted_pair_combiner()).unwrap()
}

/// What a digest keeps of one step: the label and the fused scores.
fn digest_steps(h: &mut Fnv, steps: &[MultiStepClassification]) {
    h.index(steps.len());
    for step in steps {
        h.index(step.class);
        h.scores(&step.scores);
    }
}

fn pair_inputs<'a>(frames: &'a [Frame], windows: &'a Tensor) -> [(StreamId, StreamInput<'a>); 2] {
    [
        (StreamId::CAMERA_FRONT, StreamInput::Frames(frames)),
        (StreamId::IMU, StreamInput::Windows(windows)),
    ]
}

/// The whole batch through the engine, both streams healthy.
fn classify_batch(
    engine: &mut MultiModalEngine,
    frames: &[Frame],
    windows: &Tensor,
) -> Vec<MultiStepClassification> {
    let mut out = Vec::new();
    engine
        .classify_batch_into(&pair_inputs(frames, windows), &mut out)
        .unwrap();
    out
}

/// One step with the stream `down` unavailable.
fn classify_survivor(
    engine: &mut MultiModalEngine,
    frame: &Frame,
    window: &Tensor,
    down: StreamId,
) -> MultiStepClassification {
    let inputs = pair_inputs(std::slice::from_ref(frame), window);
    let mut out = Vec::new();
    engine
        .classify_batch_checked_into(&inputs, &[(down, ModalityStatus::Unavailable)], &mut out)
        .unwrap();
    out.remove(0)
}

#[test]
fn tiny_engine_batch_digests() {
    let (frames, windows) = tiny_batch(5);
    let digest = |kind| {
        let mut h = Fnv::new();
        digest_steps(
            &mut h,
            &classify_batch(&mut tiny_engine(kind), &frames, &windows),
        );
        h.0
    };
    pin(
        digest(CombinerKind::Bayesian),
        0xD43C_2489_49DD_BDFE,
        "Bayesian batch",
    );
    pin(
        digest(CombinerKind::Product),
        0xBF0B_B2B8_F1ED_A52D,
        "product batch",
    );
    pin(
        digest(CombinerKind::CnnOnly),
        0xAB95_8A88_D661_7954,
        "CNN-only batch",
    );
}

#[test]
fn single_survivor_expansion_digests() {
    let (frames, windows) = tiny_batch(3);
    let mut engine = tiny_engine(CombinerKind::Bayesian);
    let (mut camera, mut imu) = (Fnv::new(), Fnv::new());
    for (i, frame) in frames.iter().enumerate() {
        let window = window_row(&windows, i);
        digest_steps(
            &mut camera,
            &[classify_survivor(
                &mut engine,
                frame,
                &window,
                StreamId::IMU,
            )],
        );
        digest_steps(
            &mut imu,
            &[classify_survivor(
                &mut engine,
                frame,
                &window,
                StreamId::CAMERA_FRONT,
            )],
        );
    }
    pin(camera.0, 0x432C_9910_9B2A_1665, "camera-only expansion");
    pin(imu.0, 0x542D_E827_BF57_EFC7, "IMU-only expansion");
}

#[test]
fn private_frame_route_digest() {
    // A dCNN-L student serves frames distorted to a third of the edge.
    let (frames, windows) = tiny_batch(3);
    let level = PrivacyLevel::Low;
    let downsampler = Downsampler::new(FRAME);
    let mut engine = tiny_engine(CombinerKind::Bayesian);
    engine
        .register_dcnn(StreamId::CAMERA_FRONT, level, tiny_cnn(9))
        .unwrap();
    let mut h = Fnv::new();
    for (i, frame) in frames.iter().enumerate() {
        let distorted = downsampler.distort(frame, level);
        assert_eq!(distorted.width(), 8);
        let step = classify_batch(
            &mut engine,
            std::slice::from_ref(&distorted),
            &window_row(&windows, i),
        );
        digest_steps(&mut h, &step);
    }
    pin(h.0, 0x287A_2C41_C704_3429, "private-frame route");
}

fn digest_matrix(h: &mut Fnv, m: &ConfusionMatrix) {
    for i in 0..6 {
        for j in 0..6 {
            h.index(m.count(i, j));
        }
    }
}

#[test]
fn table2_stack_digest() {
    let config = ExperimentConfig {
        scale: 0.015,
        cnn_epochs: 2,
        rnn_epochs: 2,
        ..ExperimentConfig::fast()
    };
    let world = Arc::new(DrivingWorld::new(WorldConfig {
        drivers: config.drivers,
        seed: config.seed,
        ..WorldConfig::default()
    }));
    let schedule = build_schedule(&ScheduleConfig {
        drivers: config.drivers,
        scale: config.scale,
        ..ScheduleConfig::default()
    });
    let campaign = CampaignConfig {
        seed: config.seed ^ 0xCA11,
        ..CampaignConfig::default()
    };
    let recordings =
        run_campaign(&world, &schedule, &campaign, &StreamId::DARNET_PAIR, &[]).unwrap();
    let dataset = Dataset::from_recordings(&recordings, &schedule).unwrap();
    let stack = train_stack_on(&config, dataset).unwrap();

    // The Bayesian ensembles' predictions, as Table 2 / Figure 5 report
    // them, and the product rule's beside them.
    let report = table2_from_stack(&stack).unwrap();
    let ablation = run_ablation_combiner(&stack).unwrap();
    let mut h = Fnv::new();
    digest_matrix(&mut h, &report.cm_cnn_rnn);
    digest_matrix(&mut h, &report.cm_cnn_svm);
    digest_matrix(&mut h, &report.cm_cnn);
    for v in [
        report.top1_cnn_rnn,
        report.top1_cnn_svm,
        report.top1_cnn,
        ablation.bayesian,
        ablation.product,
        ablation.cnn_only,
    ] {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    pin(h.0, 0xF70A_ACEF_8C66_F491, "Table 2 stack");
}

/// The world, schedule knobs and campaign the two dataset digests share:
/// two drivers at 24 px, ≈ 190 Table-1 frames, 3 % loss on every link.
fn dataset_world() -> (Arc<DrivingWorld>, ScheduleConfig, CampaignConfig) {
    let world = Arc::new(DrivingWorld::new(WorldConfig {
        drivers: 2,
        frame_size: FRAME,
        seed: 0xDA7A,
    }));
    let schedule = ScheduleConfig {
        drivers: 2,
        scale: 0.0033,
        ..ScheduleConfig::default()
    };
    let mut campaign = CampaignConfig {
        seed: 0xDA7A ^ 0xCA11,
        ..CampaignConfig::default()
    };
    campaign.link.loss = 0.03;
    (world, schedule, campaign)
}

/// What a digest keeps of one labelled sample: when, who, which class,
/// every pixel of every frame it holds, and the IMU window.
fn digest_sample(
    h: &mut Fnv,
    (t, driver, class): (f64, usize, usize),
    frames: &[&Frame],
    window: &[f32],
) {
    h.bytes(&t.to_bits().to_le_bytes());
    h.index(driver);
    h.index(class);
    for frame in frames {
        h.scores(frame.pixels());
    }
    h.scores(window);
}

/// The identity of each side of a seeded split: its size and the
/// `(driver, t)` of every sample, in order.
fn digest_split(h: &mut Fnv, sides: [Vec<(usize, f64)>; 2]) {
    for side in sides {
        h.index(side.len());
        for (driver, t) in side {
            h.index(driver);
            h.bytes(&t.to_bits().to_le_bytes());
        }
    }
}

#[test]
fn pair_dataset_digest() {
    let (world, schedule, campaign) = dataset_world();
    let schedule = build_schedule(&schedule);
    let recordings =
        run_campaign(&world, &schedule, &campaign, &StreamId::DARNET_PAIR, &[]).unwrap();
    let dataset = Dataset::from_recordings(&recordings, &schedule).unwrap();
    assert_eq!(dataset.frame_size(), FRAME);

    let mut h = Fnv::new();
    h.index(dataset.len());
    for s in dataset.samples() {
        digest_sample(
            &mut h,
            (s.t, s.driver, s.class.index()),
            &[&s.frames[0]],
            &s.imu_window,
        );
    }
    // The six Table-1 counts; a 6-class script leaves the drowsy two at 0.
    let counts = dataset.class_counts();
    assert!(counts[..6].iter().all(|&c| c > 0) && counts[6..] == [0, 0]);
    for &c in &counts[..6] {
        h.index(c);
    }
    let (train, eval) = dataset.split(0.8, 0x5EED).unwrap();
    let ids = |d: &Dataset| d.samples().iter().map(|s| (s.driver, s.t)).collect();
    digest_split(&mut h, [ids(&train), ids(&eval)]);
    pin(h.0, 0x258C_73C0_3276_3CEF, "pair dataset");
}

#[test]
fn three_stream_dataset_digest() {
    // Fire-and-forget transport with a side link that loses 45 % of its
    // batches: a front anchor whose neighbouring side batches all died
    // has no side frame within the 0.3 s tolerance and is dropped; one
    // that lost only its own adopts a frame a period away.
    let (world, base, mut campaign) = dataset_world();
    campaign.retransmit = false;
    // The constant the retired 3-stream front-end mixed into every seed.
    campaign.seed ^= 0xCA40_0515_0A11_ED00;
    let schedule = build_schedule(&ScheduleConfig {
        drowsy_seconds_per_class: 4.0,
        ..base
    });
    let streams = [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];
    let lossy_side = LinkConfig {
        loss: 0.45,
        ..LinkConfig::default()
    };
    let recordings = run_campaign(
        &world,
        &schedule,
        &campaign,
        &streams,
        &[(StreamId::CAMERA_SIDE, lossy_side)],
    )
    .unwrap();
    let dataset = Dataset::from_recordings(&recordings, &schedule).unwrap();
    assert_eq!(dataset.frame_size(), FRAME);
    let anchors: usize = recordings
        .iter()
        .map(|r| {
            let front = r.frames_for(StreamId::CAMERA_FRONT);
            pair_frames_with_windows(front, &r.imu, WINDOW_LEN).len()
        })
        .sum();
    assert!(
        dataset.len() > anchors / 2 && dataset.len() < anchors,
        "{} of {anchors} anchors kept: the tolerance must drop some, not all",
        dataset.len()
    );

    let mut h = Fnv::new();
    h.index(dataset.len());
    for s in dataset.samples() {
        digest_sample(
            &mut h,
            (s.t, s.driver, s.class.index()),
            &[&s.frames[0], &s.frames[1]],
            &s.imu_window,
        );
    }
    let counts = dataset.class_counts();
    assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    for c in counts {
        h.index(c);
    }
    let (train, eval) = dataset.split(0.8, 0x5EED).unwrap();
    let ids = |d: &Dataset| d.samples().iter().map(|s| (s.driver, s.t)).collect();
    digest_split(&mut h, [ids(&train), ids(&eval)]);
    pin(h.0, 0x0011_AE14_7FF4_0229, "3-stream dataset");
}
