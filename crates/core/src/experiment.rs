//! End-to-end experiment drivers regenerating every table and figure of
//! the paper (see `DESIGN.md` §4 for the experiment index). The
//! `darnet-bench` `repro` driver prints them, one section each, and
//! builds each shared artifact (the default campaign's [`Dataset`], the
//! [`TrainedStack`], the [`PrivacyTeacher`]) once per process; the
//! integration tests run them at reduced scale.
#![expect(
    clippy::disallowed_methods,
    reason = "durable-I/O and randomness owner: seeded experiment setup and the figure files it writes"
)]

use std::sync::Arc;

use darnet_collect::runtime::{run_campaign, CampaignConfig, Recording};
use darnet_collect::{FaultConfig, LinkConfig, StreamId};
use darnet_sim::schedule::{
    build_extended_schedule, build_schedule, ExtendedScheduleConfig, ScheduleConfig,
    TABLE1_FRAME_COUNTS,
};
use darnet_sim::{CanonicalBehavior, DrivingWorld, ExtendedBehavior, Frame, Segment, WorldConfig};
use darnet_tensor::{SplitMix64, Tensor};

use crate::dataset::{frames_to_tensor, Dataset, ExtendedFrameDataset, IMU_FEATURES, WINDOW_LEN};
use crate::ensemble::{CombinerKind, NaryBayesianCombiner};
use crate::eval::{count_correct, ConfusionMatrix};
use crate::health::{HealthPolicy, ModalityStatus};
use crate::models::{CnnConfig, FrameCnn, ImuRnn, ImuSvm, RnnConfig};
use crate::privacy::{distill_dcnn, DistillConfig, Downsampler, PrivacyLevel};
use crate::registry::{
    product_combine_subset_into, ClassMap, ModalityDescriptor, MultiModalEngine,
    MultiStepClassification, StreamInput, StreamModelSlot,
};
use crate::Result;

/// Knobs shared by every experiment driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Master seed.
    pub seed: u64,
    /// Scale factor on the paper's Table-1 frame counts.
    pub scale: f64,
    /// Square frame edge length.
    pub frame_size: usize,
    /// CNN training epochs.
    pub cnn_epochs: usize,
    /// CNN width multiplier.
    pub cnn_width: f32,
    /// RNN training epochs.
    pub rnn_epochs: usize,
    /// LSTM hidden units per direction.
    pub rnn_hidden: usize,
    /// Stacked BiLSTM layers.
    pub rnn_depth: usize,
    /// Number of drivers in the main campaign (paper: 5).
    pub drivers: usize,
}

impl ExperimentConfig {
    /// Reduced-scale preset for tests: trains in seconds.
    pub fn fast() -> Self {
        ExperimentConfig {
            seed: 0xDA12_2017,
            scale: 0.02,
            frame_size: 48,
            cnn_epochs: 4,
            cnn_width: 0.75,
            rnn_epochs: 4,
            rnn_hidden: 12,
            rnn_depth: 1,
            drivers: 5,
        }
    }

    /// Full-reproduction preset the `repro` driver runs without `--fast`: the
    /// paper's class balance at 1/10 frame count, a wider CNN, and the
    /// paper's 2-layer bidirectional LSTM (32 hidden units per direction —
    /// a CPU-budget reduction of the paper's 64, documented in DESIGN.md).
    pub fn paper() -> Self {
        ExperimentConfig {
            seed: 0xDA12_2017,
            scale: 0.1,
            frame_size: 48,
            cnn_epochs: 10,
            cnn_width: 1.5,
            rnn_epochs: 8,
            rnn_hidden: 32,
            rnn_depth: 2,
            drivers: 5,
        }
    }
}

/// `dataset`'s 80/20 train/eval split under `config`'s seed, the one every
/// experiment on the cabin campaign makes.
fn split(config: &ExperimentConfig, dataset: &Dataset) -> Result<(Dataset, Dataset)> {
    const TRAIN_FRAC: f64 = 0.8;
    dataset.split(TRAIN_FRAC, config.seed ^ 0x5911)
}

/// The campaign every experiment starts from: the master seed's campaign
/// seed, everything else at the paper's defaults.
fn campaign(config: &ExperimentConfig) -> CampaignConfig {
    CampaignConfig {
        seed: config.seed ^ 0xCA11,
        ..CampaignConfig::default()
    }
}

/// Builds `config`'s world and its Table-1 schedule plus
/// `drowsy_seconds` of each drowsiness class per driver (`0.0` is the
/// paper's 6-class script exactly), and runs `campaign` over `streams`
/// through the middleware with `link_overrides` on the named streams.
/// Returns one recording per driver and the schedule that labels them.
fn collect(
    config: &ExperimentConfig,
    drowsy_seconds: f64,
    streams: &[StreamId],
    campaign: &CampaignConfig,
    link_overrides: &[(StreamId, LinkConfig)],
) -> Result<(Vec<Recording>, Vec<Segment<CanonicalBehavior>>)> {
    let world = Arc::new(DrivingWorld::new(WorldConfig {
        drivers: config.drivers,
        frame_size: config.frame_size,
        seed: config.seed,
    }));
    let schedule = build_schedule(&ScheduleConfig {
        drivers: config.drivers,
        scale: config.scale,
        drowsy_seconds_per_class: drowsy_seconds,
    });
    let recordings = run_campaign(&world, &schedule, campaign, streams, link_overrides)?;
    Ok((recordings, schedule))
}

/// `config`'s frame CNN with a `classes`-way head.
fn cnn_config(config: &ExperimentConfig, classes: usize) -> CnnConfig {
    CnnConfig {
        input_size: config.frame_size,
        classes,
        width: config.cnn_width,
        ..CnnConfig::default()
    }
}

/// `config`'s IMU BiLSTM.
fn rnn_config(config: &ExperimentConfig) -> RnnConfig {
    RnnConfig {
        hidden: config.rnn_hidden,
        depth: config.rnn_depth,
        ..RnnConfig::default()
    }
}

/// The paper's campaign — [`StreamId::DARNET_PAIR`] over the 6-class
/// script — as a labeled dataset.
///
/// # Errors
///
/// Propagates collection and dataset errors.
pub fn collect_multimodal(config: &ExperimentConfig) -> Result<Dataset> {
    collect_pair(config, &campaign(config))
}

/// [`collect_multimodal`] under a modified `campaign`.
fn collect_pair(config: &ExperimentConfig, campaign: &CampaignConfig) -> Result<Dataset> {
    let (recordings, schedule) = collect(config, 0.0, &StreamId::DARNET_PAIR, campaign, &[])?;
    Dataset::from_recordings(&recordings, &schedule)
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One row of the Table-1 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Class number (1-based, as in the paper).
    pub class: usize,
    /// Class description.
    pub description: &'static str,
    /// "Image, IMU" or "Image, —" (Table 1 data-type column).
    pub data_types: &'static str,
    /// The paper's frame count.
    pub paper_frames: usize,
    /// Target count at this run's scale.
    pub target_frames: usize,
    /// Frames actually collected through the middleware.
    pub collected_frames: usize,
}

/// The Table-1 reproduction report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Report {
    /// One row per behaviour class.
    pub rows: Vec<Table1Row>,
    /// Total collected frames.
    pub total_collected: usize,
}

/// Regenerates Table 1: tabulates the per-class frame counts of
/// `config`'s campaign ([`collect_multimodal`]) against the paper's.
pub fn run_table1(config: &ExperimentConfig, dataset: &Dataset) -> Table1Report {
    let counts = dataset.class_counts();
    let rows = CanonicalBehavior::TABLE1
        .iter()
        .enumerate()
        .map(|(i, b)| Table1Row {
            class: i + 1,
            description: b.name(),
            data_types: if b.table1_has_imu() {
                "Image, IMU"
            } else {
                "Image, \u{2014}"
            },
            paper_frames: TABLE1_FRAME_COUNTS[i],
            target_frames: (TABLE1_FRAME_COUNTS[i] as f64 * config.scale).round() as usize,
            collected_frames: counts[i],
        })
        .collect();
    Table1Report {
        rows,
        total_collected: dataset.len(),
    }
}

// ---------------------------------------------------------------------
// Table 2 / Figure 5
// ---------------------------------------------------------------------

/// Every artifact of one full multimodal training run, reused by the
/// Table-2/Figure-5 reports and the ablations.
pub struct TrainedStack {
    /// Training split.
    pub train: Dataset,
    /// Evaluation split.
    pub eval: Dataset,
    /// Trained frame CNN (6 classes).
    pub cnn: FrameCnn,
    /// Trained IMU BiLSTM (3 classes).
    pub rnn: ImuRnn,
    /// Trained IMU SVM (3 classes).
    pub svm: ImuSvm,
    /// Bayesian combiner fitted for CNN+RNN (parents `[cnn, rnn]`).
    pub bn_rnn: NaryBayesianCombiner,
    /// Bayesian combiner fitted for CNN+SVM (parents `[cnn, svm]`).
    pub bn_svm: NaryBayesianCombiner,
    /// CNN probabilities on the evaluation split.
    pub cnn_probs_eval: Tensor,
    /// RNN probabilities on the evaluation split.
    pub rnn_probs_eval: Tensor,
    /// SVM probabilities on the evaluation split.
    pub svm_probs_eval: Tensor,
}

/// Trains the full DarNet stack (CNN, RNN, SVM, both combiners) on a
/// freshly collected campaign.
///
/// # Errors
///
/// Propagates collection/training errors.
pub fn train_stack(config: &ExperimentConfig) -> Result<TrainedStack> {
    train_stack_on(config, &collect_multimodal(config)?)
}

/// Trains the full stack on an already-collected dataset (the `repro`
/// driver passes the campaign Table 1 tabulated; tests pass their own).
///
/// # Errors
///
/// Propagates training errors.
pub fn train_stack_on(config: &ExperimentConfig, dataset: &Dataset) -> Result<TrainedStack> {
    let (train, eval) = split(config, dataset)?;

    // Frame CNN.
    let mut cnn = FrameCnn::new(cnn_config(config, 6), config.seed ^ 0xC99);
    let train_frames = train.frames_tensor(StreamId::CAMERA_FRONT)?;
    let train_labels6 = train.labels();
    cnn.fit(&train_frames, &train_labels6, config.cnn_epochs)?;

    // IMU models.
    let train_windows = train.imu_tensor()?;
    let train_labels3 = train.labels3();
    let mut rnn = ImuRnn::new(rnn_config(config), config.seed ^ 0x44);
    rnn.fit(&train_windows, &train_labels3, config.rnn_epochs)?;
    let mut svm = ImuSvm::new(WINDOW_LEN, IMU_FEATURES, 3);
    let mut svm_rng = SplitMix64::new(config.seed ^ 0x55);
    svm.fit(&train_windows, &train_labels3, &mut svm_rng)?;

    // Combiners: CPTs from training-set observations (paper §4.2).
    let cnn_probs_train = cnn.predict_proba(&train_frames)?;
    let rnn_probs_train = rnn.predict_proba(&train_windows)?;
    let svm_probs_train = svm.predict_proba(&train_windows)?;
    let mut bn_rnn = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
    bn_rnn.fit(&[&cnn_probs_train, &rnn_probs_train], &train_labels6)?;
    let mut bn_svm = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
    bn_svm.fit(&[&cnn_probs_train, &svm_probs_train], &train_labels6)?;

    // Evaluation-split probabilities (computed once, reused by reports).
    let eval_frames = eval.frames_tensor(StreamId::CAMERA_FRONT)?;
    let eval_windows = eval.imu_tensor()?;
    let cnn_probs_eval = cnn.predict_proba(&eval_frames)?;
    let rnn_probs_eval = rnn.predict_proba(&eval_windows)?;
    let svm_probs_eval = svm.predict_proba(&eval_windows)?;

    Ok(TrainedStack {
        train,
        eval,
        cnn,
        rnn,
        svm,
        bn_rnn,
        bn_svm,
        cnn_probs_eval,
        rnn_probs_eval,
        svm_probs_eval,
    })
}

/// The Table-2 (+ §5.2 IMU-only numbers) and Figure-5 report.
#[derive(Debug, Clone)]
pub struct Table2Report {
    /// Top-1 of the CNN+RNN ensemble (paper: 87.02%).
    pub top1_cnn_rnn: f64,
    /// Top-1 of the CNN+SVM ensemble (paper: 86.23%).
    pub top1_cnn_svm: f64,
    /// Top-1 of the frame-only CNN (paper: 73.88%).
    pub top1_cnn: f64,
    /// RNN accuracy on the IMU stream alone, 3 classes (paper: 97.44%).
    pub imu_rnn_top1: f64,
    /// SVM accuracy on the IMU stream alone, 3 classes (paper: 95.37%).
    pub imu_svm_top1: f64,
    /// Figure 5a: CNN+RNN confusion matrix.
    pub cm_cnn_rnn: ConfusionMatrix,
    /// Figure 5b: CNN+SVM confusion matrix.
    pub cm_cnn_svm: ConfusionMatrix,
    /// Figure 5c: CNN-only confusion matrix.
    pub cm_cnn: ConfusionMatrix,
}

fn accuracy(preds: &[usize], labels: &[usize]) -> Result<f64> {
    Ok(count_correct(preds, labels)? as f64 / labels.len().max(1) as f64)
}

/// Hard pair-ensemble predictions over an evaluation split: sample `i`'s
/// CNN and IMU posterior rows go through `fuse`, the fused rows through
/// one argmax.
fn pair_predictions(
    cnn_probs: &Tensor,
    imu_probs: &Tensor,
    mut fuse: impl FnMut(&[f32], &[f32], &mut Vec<f32>) -> Result<()>,
) -> Result<Vec<usize>> {
    let (n, classes) = (cnn_probs.dims()[0], cnn_probs.dims()[1]);
    let (mut rows, mut scores) = (Vec::with_capacity(n * classes), Vec::new());
    let imu_rows = imu_probs.data().chunks(imu_probs.dims()[1]);
    for (c, m) in cnn_probs.data().chunks(classes).zip(imu_rows) {
        fuse(c, m, &mut scores)?;
        rows.extend_from_slice(&scores);
    }
    Ok(Tensor::from_vec(rows, &[n, classes])?.argmax_rows()?)
}

/// [`pair_predictions`] through a fitted Bayesian combiner.
fn bayes_predictions(
    combiner: &NaryBayesianCombiner,
    cnn_probs: &Tensor,
    imu_probs: &Tensor,
) -> Result<Vec<usize>> {
    pair_predictions(cnn_probs, imu_probs, |c, m, scores| {
        combiner.combine_n_into(&[c, m], scores)
    })
}

/// Computes the Table-2/Figure-5 report from a trained stack.
///
/// # Errors
///
/// Propagates model errors.
pub fn table2_from_stack(stack: &TrainedStack) -> Result<Table2Report> {
    let labels6 = stack.eval.labels();
    let labels3 = stack.eval.labels3();

    let preds_cnn = stack.cnn_probs_eval.argmax_rows()?;
    let preds_rnn_ens =
        bayes_predictions(&stack.bn_rnn, &stack.cnn_probs_eval, &stack.rnn_probs_eval)?;
    let preds_svm_ens =
        bayes_predictions(&stack.bn_svm, &stack.cnn_probs_eval, &stack.svm_probs_eval)?;
    let preds_rnn_only = stack.rnn_probs_eval.argmax_rows()?;
    let preds_svm_only = stack.svm_probs_eval.argmax_rows()?;

    Ok(Table2Report {
        top1_cnn_rnn: accuracy(&preds_rnn_ens, &labels6)?,
        top1_cnn_svm: accuracy(&preds_svm_ens, &labels6)?,
        top1_cnn: accuracy(&preds_cnn, &labels6)?,
        imu_rnn_top1: accuracy(&preds_rnn_only, &labels3)?,
        imu_svm_top1: accuracy(&preds_svm_only, &labels3)?,
        cm_cnn_rnn: ConfusionMatrix::from_predictions(&labels6, &preds_rnn_ens, 6)?,
        cm_cnn_svm: ConfusionMatrix::from_predictions(&labels6, &preds_svm_ens, 6)?,
        cm_cnn: ConfusionMatrix::from_predictions(&labels6, &preds_cnn, 6)?,
    })
}

// ---------------------------------------------------------------------
// Table 3 / Figure 4 (privacy study)
// ---------------------------------------------------------------------

/// Configuration for the privacy (dCNN) study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyExperimentConfig {
    /// Master seed.
    pub seed: u64,
    /// Drivers in the extended dataset (paper: 10).
    pub drivers: usize,
    /// Seconds of footage per class per driver.
    pub seconds_per_class: f64,
    /// Frame edge length.
    pub frame_size: usize,
    /// Teacher CNN width.
    pub cnn_width: f32,
    /// Teacher supervised epochs.
    pub teacher_epochs: usize,
    /// Distillation settings.
    pub distill: DistillConfig,
    /// Multiplier on the unlabeled pool size relative to the training
    /// split (distillation needs no labels, so students see more data —
    /// the regularization effect behind dCNN-L ≥ CNN).
    pub unlabeled_multiplier: f64,
}

impl PrivacyExperimentConfig {
    /// Reduced-scale preset for tests.
    pub fn fast() -> Self {
        PrivacyExperimentConfig {
            seed: 0xD155,
            drivers: 4,
            seconds_per_class: 5.0,
            frame_size: 48,
            cnn_width: 1.0,
            teacher_epochs: 8,
            distill: DistillConfig {
                epochs: 4,
                ..DistillConfig::default()
            },
            unlabeled_multiplier: 1.5,
        }
    }

    /// Full preset for Table 3 and the distillation ablation.
    pub fn paper() -> Self {
        PrivacyExperimentConfig {
            seed: 0xD155,
            drivers: 10,
            // A deliberately small labeled set (the paper's 18-class CNN
            // reaches only 78.87%) with a much larger unlabeled pool for
            // the label-free distillation.
            seconds_per_class: 3.0,
            // 96 px frames: the paper's absolute distortion sizes
            // (100/50/25 px) still contain gross pose; see DESIGN.md §2.
            frame_size: 96,
            cnn_width: 1.5,
            teacher_epochs: 10,
            distill: DistillConfig {
                epochs: 8,
                temperature: 3.0,
                ..DistillConfig::default()
            },
            unlabeled_multiplier: 3.0,
        }
    }
}

/// The Table-3 report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Report {
    /// Baseline full-resolution CNN Top-1 (paper: 78.87%).
    pub cnn_top1: f64,
    /// `(level, top1)` per distortion level (paper: 80.00 / 77.78 /
    /// 63.13%).
    pub dcnn_top1: Vec<(PrivacyLevel, f64)>,
}

/// What both privacy experiments start from: the 18-class world, its
/// driver-disjoint split, the noisy training labels and the teacher fitted
/// on them, with its full-resolution Top-1 on the held-out drivers.
/// [`run_table3`] and [`run_ablation_distill`] borrow one; distilling
/// from the teacher runs it in eval mode only, so neither moves what the
/// other computes.
pub struct PrivacyTeacher {
    world: DrivingWorld,
    train: ExtendedFrameDataset,
    eval: ExtendedFrameDataset,
    noisy_train: ExtendedFrameDataset,
    cnn_config: CnnConfig,
    teacher: FrameCnn,
    teacher_full: f64,
}

/// Builds the world and extended schedule of `config`, splits the
/// dataset by driver, and fits and evaluates the teacher.
///
/// # Errors
///
/// Propagates dataset and training errors.
pub fn fit_privacy_teacher(config: &PrivacyExperimentConfig) -> Result<PrivacyTeacher> {
    let world = DrivingWorld::new(WorldConfig {
        drivers: config.drivers,
        frame_size: config.frame_size,
        seed: config.seed,
    });
    let schedule = build_extended_schedule(&ExtendedScheduleConfig {
        drivers: config.drivers,
        seconds_per_class: config.seconds_per_class,
    });
    const FPS: f64 = 3.0; // the labeled dataset's sampling rate
    let dataset = ExtendedFrameDataset::generate(&world, &schedule, FPS);
    // Driver-disjoint evaluation: every 5th driver (or the last one, for
    // tiny rosters) is held out, exposing the teacher's identity
    // overfitting (the paper's §5.3 hypothesis for why dCNN-L can beat
    // the full-resolution CNN).
    let holdout = config.drivers.min(5);
    let (train, eval) = dataset.split_by_driver(holdout, holdout.saturating_sub(1))?;

    // Teacher: supervised training on the labeled split.
    let cnn_config = CnnConfig {
        input_size: config.frame_size,
        classes: 18,
        width: config.cnn_width,
        ..CnnConfig::default()
    };
    let mut teacher = FrameCnn::new(cnn_config, config.seed ^ 0x7);
    let train_frames = frames_to_tensor(train.frames())?;
    // Hand-annotated video labels are imperfect near segment boundaries;
    // the teacher partially memorizes this noise (the overfitting §5.3
    // describes), while the label-free distilled students do not.
    const LABEL_NOISE: f64 = 0.2; // the share of training labels flipped
    let noisy_train = train.with_label_noise(LABEL_NOISE, config.seed ^ 0x9A);
    teacher.fit(&train_frames, noisy_train.labels(), config.teacher_epochs)?;
    let teacher_full = teacher.evaluate(&frames_to_tensor(eval.frames())?, eval.labels())? as f64;
    Ok(PrivacyTeacher {
        world,
        train,
        eval,
        noisy_train,
        cnn_config,
        teacher,
        teacher_full,
    })
}

/// Regenerates Table 3: distills one dCNN per level from `config`'s
/// teacher ([`fit_privacy_teacher`]) on an unlabeled pool, and evaluates
/// everything on the same held-out split.
///
/// # Errors
///
/// Propagates training errors.
pub fn run_table3(
    config: &PrivacyExperimentConfig,
    teacher: &mut PrivacyTeacher,
) -> Result<Table3Report> {
    let PrivacyTeacher {
        world,
        train,
        eval,
        teacher,
        teacher_full,
        ..
    } = teacher;

    // Unlabeled pool: the training frames plus freshly generated footage
    // at offset times (the paper's method is fully unsupervised, so new
    // data can be incorporated freely).
    let mut unlabeled: Vec<Frame> = train.frames().to_vec();
    let extra_needed =
        ((train.len() as f64) * (config.unlabeled_multiplier - 1.0)).max(0.0) as usize;
    if extra_needed > 0 {
        let mut rng = SplitMix64::new(config.seed ^ 0x11);
        let per_class = extra_needed / 18 + 1;
        'outer: for k in 0..per_class {
            for b in ExtendedBehavior::ALL {
                let driver = rng.next_usize(config.drivers);
                let t = 500.0 + k as f64 * 1.7 + b.index() as f64 * 29.3;
                unlabeled.push(world.render_extended_frame(driver, b, t));
                if unlabeled.len() >= train.len() + extra_needed {
                    break 'outer;
                }
            }
        }
    }

    let downsampler = Downsampler::new(config.frame_size);
    let mut dcnn_top1 = Vec::new();
    for level in PrivacyLevel::ALL {
        let mut student = distill_dcnn(
            teacher,
            &unlabeled,
            level,
            &config.distill,
            config.seed ^ (0x100 + level.divisor() as u64),
        )?;
        let eval_distorted = downsampler.roundtrip_tensor(eval.frames(), level)?;
        let acc = student.evaluate(&eval_distorted, eval.labels())? as f64;
        dcnn_top1.push((level, acc));
    }
    Ok(Table3Report {
        cnn_top1: *teacher_full,
        dcnn_top1,
    })
}

/// Regenerates Figure 4: one frame at full resolution and at the three
/// distortion levels, written as PGM files into `dir`. Returns the file
/// paths.
///
/// # Errors
///
/// Returns an I/O-wrapping dataset error if the directory is not
/// writable.
pub fn run_fig4(dir: &std::path::Path, seed: u64) -> Result<Vec<std::path::PathBuf>> {
    let world = DrivingWorld::new(WorldConfig {
        seed,
        ..WorldConfig::default()
    });
    let frame = world.render_canonical_frame(0, CanonicalBehavior::Texting, 3.0);
    let downsampler = Downsampler::new(frame.width());
    let mut paths = Vec::new();
    let write = |name: &str, f: &Frame| -> Result<std::path::PathBuf> {
        let path = dir.join(name);
        std::fs::write(&path, f.to_pgm())
            .map_err(|e| crate::CoreError::Dataset(format!("writing {}: {e}", path.display())))?;
        Ok(path)
    };
    paths.push(write("fig4_full.pgm", &frame)?);
    for level in PrivacyLevel::ALL {
        let distorted = downsampler.distort(&frame, level);
        paths.push(write(
            &format!("fig4_{}.pgm", level.model_name().to_lowercase()),
            &distorted,
        )?);
    }
    Ok(paths)
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ---------------------------------------------------------------------

/// Combiner-ablation result: Top-1 per fusion strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinerAblation {
    /// The paper's Bayesian-network combiner.
    pub bayesian: f64,
    /// Independence-product fusion.
    pub product: f64,
    /// CNN only.
    pub cnn_only: f64,
}

/// Compares fusion strategies on a trained stack's evaluation split.
///
/// # Errors
///
/// Propagates combiner errors.
pub fn run_ablation_combiner(stack: &TrainedStack) -> Result<CombinerAblation> {
    let labels6 = stack.eval.labels();
    let (cnn_probs, rnn_probs) = (&stack.cnn_probs_eval, &stack.rnn_probs_eval);
    let bayes_preds = bayes_predictions(&stack.bn_rnn, cnn_probs, rnn_probs)?;
    let (camera, imu) = (
        ModalityDescriptor::darnet_camera(),
        ModalityDescriptor::darnet_imu(),
    );
    let product_preds = pair_predictions(cnn_probs, rnn_probs, |c, m, scores| {
        let parents = [(Some(c), &camera.class_map), (Some(m), &imu.class_map)];
        product_combine_subset_into(&parents, 6, scores)
    })?;
    let cnn_preds = stack.cnn_probs_eval.argmax_rows()?;
    Ok(CombinerAblation {
        bayesian: accuracy(&bayes_preds, &labels6)?,
        product: accuracy(&product_preds, &labels6)?,
        cnn_only: accuracy(&cnn_preds, &labels6)?,
    })
}

/// Clock-sync ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSyncAblation {
    /// Max observed agent clock error with the 5 s sync protocol on.
    pub max_error_synced: f64,
    /// Max observed agent clock error with synchronization disabled.
    pub max_error_unsynced: f64,
}

/// Measures the clock-error impact of disabling the paper's 5-second
/// master–slave synchronization protocol.
///
/// # Errors
///
/// Propagates collection errors.
pub fn run_ablation_clocksync(config: &ExperimentConfig) -> Result<ClockSyncAblation> {
    // The diagnostic follows the phone: the front camera shares the
    // controller's tablet.
    let max_error = |sync_enabled: bool| -> Result<f64> {
        let campaign = CampaignConfig {
            sync_enabled,
            ..campaign(config)
        };
        let (recordings, _) = collect(config, 0.0, &StreamId::DARNET_PAIR, &campaign, &[])?;
        let phones = recordings
            .iter()
            .filter_map(|rec| rec.stream(StreamId::IMU));
        Ok(phones.map(|p| p.max_clock_error).fold(0.0, f64::max))
    };
    Ok(ClockSyncAblation {
        max_error_synced: max_error(true)?,
        max_error_unsynced: max_error(false)?,
    })
}

/// Smoothing/alignment ablation result: IMU-only RNN accuracy with the
/// controller's smoothing window on vs. off.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentAblation {
    /// RNN 3-class accuracy with the paper's smoothing pipeline.
    pub smoothed: f64,
    /// RNN 3-class accuracy with smoothing disabled (window = 1).
    pub unsmoothed: f64,
}

/// Measures the effect of the controller's sliding-moving-average
/// smoothing on downstream IMU classification. `stack` is `config`'s
/// [`TrainedStack`], whose RNN is the smoothed arm (the default
/// campaign smooths over 3 grid points); only the unsmoothed arm trains
/// here.
///
/// # Errors
///
/// Propagates collection/training errors.
pub fn run_ablation_alignment(
    config: &ExperimentConfig,
    stack: &TrainedStack,
) -> Result<AlignmentAblation> {
    let mut campaign = campaign(config);
    campaign.controller.smoothing_window = 1;
    let (train, eval) = split(config, &collect_pair(config, &campaign)?)?;
    let mut rnn = ImuRnn::new(rnn_config(config), config.seed ^ 0x44);
    rnn.fit(&train.imu_tensor()?, &train.labels3(), config.rnn_epochs)?;
    let unsmoothed = rnn.evaluate(&eval.imu_tensor()?, &eval.labels3())?;
    // `ImuRnn::evaluate`'s arithmetic over the stack's eval posteriors,
    // so both arms round alike.
    let labels3 = stack.eval.labels3();
    let correct = count_correct(&stack.rnn_probs_eval.argmax_rows()?, &labels3)?;
    let smoothed = correct as f32 / labels3.len().max(1) as f32;
    Ok(AlignmentAblation {
        smoothed: f64::from(smoothed),
        unsmoothed: f64::from(unsmoothed),
    })
}

/// Pre-training ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainAblation {
    /// Eval Top-1 after fine-tuning a proxy-pretrained CNN.
    pub pretrained: f64,
    /// Eval Top-1 training the same budget from scratch.
    pub from_scratch: f64,
}

/// Reproduces the paper's transfer-learning rationale: pre-train the CNN
/// on a *proxy* world (different drivers — standing in for ILSVRC),
/// replace the head, fine-tune, and compare against from-scratch training
/// with the same fine-tuning budget, on `config`'s campaign
/// ([`collect_multimodal`]).
///
/// # Errors
///
/// Propagates training errors.
pub fn run_ablation_pretrain(
    config: &ExperimentConfig,
    dataset: &Dataset,
) -> Result<PretrainAblation> {
    let (train, eval) = split(config, dataset)?;
    let train_frames = train.frames_tensor(StreamId::CAMERA_FRONT)?;
    let train_labels = train.labels();
    let eval_frames = eval.frames_tensor(StreamId::CAMERA_FRONT)?;
    let eval_labels = eval.labels();
    let cnn_config = cnn_config(config, 6);
    let fine_tune_epochs = (config.cnn_epochs / 2).max(1);

    // Proxy pre-training: a different world (different driver identities
    // and seeds), same behaviour taxonomy.
    let proxy_world = DrivingWorld::new(WorldConfig {
        drivers: 8,
        frame_size: config.frame_size,
        seed: config.seed ^ 0xAAAA,
    });
    let mut proxy_frames = Vec::new();
    let mut proxy_labels = Vec::new();
    let per_class = (train.len() / 6).max(8);
    for b in CanonicalBehavior::TABLE1 {
        for k in 0..per_class {
            let driver = k % 8;
            let t = k as f64 * 0.83 + b.index() as f64 * 11.0;
            proxy_frames.push(proxy_world.render_canonical_frame(driver, b, t));
            proxy_labels.push(b.index());
        }
    }
    let proxy_tensor = crate::dataset::frames_to_tensor(&proxy_frames)?;
    let mut pretrained = FrameCnn::new(cnn_config, config.seed ^ 0xC99);
    pretrained.fit(&proxy_tensor, &proxy_labels, config.cnn_epochs)?;
    pretrained.replace_head(6);
    pretrained.fit(&train_frames, &train_labels, fine_tune_epochs)?;
    let acc_pre = pretrained.evaluate(&eval_frames, &eval_labels)? as f64;

    let mut scratch = FrameCnn::new(cnn_config, config.seed ^ 0xC99);
    scratch.fit(&train_frames, &train_labels, fine_tune_epochs)?;
    let acc_scratch = scratch.evaluate(&eval_frames, &eval_labels)? as f64;

    Ok(PretrainAblation {
        pretrained: acc_pre,
        from_scratch: acc_scratch,
    })
}

/// Distillation-vs-supervised ablation result at one privacy level.
#[derive(Debug, Clone, PartialEq)]
pub struct DistillAblation {
    /// The privacy level studied.
    pub level: PrivacyLevel,
    /// Teacher Top-1 at full resolution.
    pub teacher_full: f64,
    /// Teacher applied directly to distorted frames (no adaptation).
    pub teacher_distorted: f64,
    /// Student trained *supervised* on distorted frames with the same
    /// labels and epoch budget.
    pub supervised: f64,
    /// Student distilled label-free from the teacher (the paper's §4.3
    /// method).
    pub distilled: f64,
}

/// Quantifies what the paper's unsupervised distillation buys at a given
/// privacy level, against (a) no adaptation at all and (b) supervised
/// training directly on distorted frames, with `config`'s teacher
/// ([`fit_privacy_teacher`]).
///
/// # Errors
///
/// Propagates training errors.
pub fn run_ablation_distill(
    config: &PrivacyExperimentConfig,
    teacher: &mut PrivacyTeacher,
    level: PrivacyLevel,
) -> Result<DistillAblation> {
    let PrivacyTeacher {
        train,
        eval,
        noisy_train: noisy,
        cnn_config,
        teacher,
        teacher_full,
        ..
    } = teacher;

    let downsampler = Downsampler::new(config.frame_size);
    let eval_distorted = downsampler.roundtrip_tensor(eval.frames(), level)?;
    let teacher_distorted = teacher.evaluate(&eval_distorted, eval.labels())? as f64;

    // Supervised student: same architecture, same epochs, trained on
    // distorted frames with the (noisy) labels.
    let mut supervised = FrameCnn::new(*cnn_config, config.seed ^ 0x13);
    let train_distorted = downsampler.roundtrip_tensor(train.frames(), level)?;
    supervised.fit(&train_distorted, noisy.labels(), config.distill.epochs)?;
    let supervised_acc = supervised.evaluate(&eval_distorted, eval.labels())? as f64;

    // Distilled student: the paper's method, label-free.
    let mut distilled = distill_dcnn(
        teacher,
        train.frames(),
        level,
        &config.distill,
        config.seed ^ 0x17,
    )?;
    let distilled_acc = distilled.evaluate(&eval_distorted, eval.labels())? as f64;

    Ok(DistillAblation {
        level,
        teacher_full: *teacher_full,
        teacher_distorted,
        supervised: supervised_acc,
        distilled: distilled_acc,
    })
}

// ---------------------------------------------------------------------
// Multiview N-stream ablation (modality registry, DESIGN.md §17)
// ---------------------------------------------------------------------

/// The 8-class → IMU-class projection: each class's
/// [`CanonicalBehavior::imu_class`] — the drowsiness cues, which leave
/// both hands on the wheel, collapse onto the wheel class.
pub fn canonical_imu_projection() -> Vec<usize> {
    CanonicalBehavior::ALL
        .iter()
        .map(|b| b.imu_class().index())
        .collect()
}

/// Knobs for [`run_ablation_multiview`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiviewConfig {
    /// World, schedule scale, model sizes and training budgets; the CNN
    /// knobs serve both camera views.
    pub base: ExperimentConfig,
    /// Seconds of each drowsiness class per driver.
    pub drowsy_seconds_per_class: f64,
}

/// Steady packet loss injected on the front-camera link in the multiview
/// ablation's faulted campaign.
const FRONT_LOSS: f64 = 0.35;
/// Fraction of the session after which the front-camera link blacks out
/// for the remainder (drives its health verdict stale).
const FRONT_BLACKOUT_FRAC: f64 = 0.25;

impl MultiviewConfig {
    /// Reduced-scale preset for tests: runs in seconds.
    pub fn fast() -> Self {
        MultiviewConfig {
            base: ExperimentConfig {
                drivers: 3,
                ..ExperimentConfig::fast()
            },
            drowsy_seconds_per_class: 6.0,
        }
    }

    /// Fuller preset the `repro` driver's `ablation_multiview` section
    /// runs without `--fast`.
    pub fn paper() -> Self {
        MultiviewConfig {
            base: ExperimentConfig {
                scale: 0.05,
                cnn_epochs: 8,
                cnn_width: 1.0,
                rnn_epochs: 6,
                rnn_hidden: 24,
                rnn_depth: 2,
                ..ExperimentConfig::fast()
            },
            drowsy_seconds_per_class: 20.0,
        }
    }
}

/// Multiview ablation result: canonical 8-class Top-1 per engine
/// configuration, all measured on the same clean evaluation split. The
/// `*_front_lost` scenarios gate fusion with the health verdicts a real
/// faulted campaign produced — the ablation never hand-sets a status.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiviewAblation {
    /// Evaluation-split size.
    pub eval_samples: usize,
    /// Front camera alone (single-survivor expansion = CNN argmax).
    pub front_only: f64,
    /// IMU + front camera, the paper's pairing.
    pub two_stream: f64,
    /// IMU + front + side camera through the 3-parent combiner.
    pub three_stream: f64,
    /// The 2-stream engine after the faulted campaign's health policy
    /// drops the front camera (falls back to the IMU projection alone).
    pub two_stream_front_lost: f64,
    /// The 3-stream engine under the same verdicts (side + IMU fuse on).
    pub three_stream_front_lost: f64,
    /// Whether the fault campaign actually drove the front-camera
    /// stream to [`ModalityStatus::Unavailable`].
    pub front_unusable_under_fault: bool,
}

fn worst_status(a: ModalityStatus, b: ModalityStatus) -> ModalityStatus {
    use ModalityStatus::{Degraded, Unavailable};
    match (a, b) {
        (Unavailable, _) | (_, Unavailable) => Unavailable,
        (Degraded, _) | (_, Degraded) => Degraded,
        _ => ModalityStatus::Healthy,
    }
}

fn score_engine(
    engine: &mut MultiModalEngine,
    inputs: &[(StreamId, StreamInput<'_>)],
    statuses: &[(StreamId, ModalityStatus)],
    labels: &[usize],
    out: &mut Vec<MultiStepClassification>,
) -> Result<f64> {
    engine.classify_batch_checked_into(inputs, statuses, out)?;
    let preds: Vec<usize> = out.iter().map(|o| o.class).collect();
    accuracy(&preds, labels)
}

/// Runs the N-stream multiview ablation: a clean canonical campaign
/// trains per-stream models and fits 2- and 3-parent combiners; a second
/// campaign with loss + blackout on the front-camera link produces the
/// health evidence whose [`HealthPolicy::select_subset`] verdicts gate
/// fusion on the clean evaluation split.
///
/// # Errors
///
/// Propagates collection, dataset, and training errors.
pub fn run_ablation_multiview(config: &MultiviewConfig) -> Result<MultiviewAblation> {
    let drowsy_seconds = config.drowsy_seconds_per_class;
    let config = &config.base;
    let streams = [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];
    // The constant the retired 3-stream session front-end mixed into
    // every seed: the `ablation_multiview` digest was recorded with it.
    let mut campaign = campaign(config);
    campaign.seed ^= 0xCA40_0515_0A11_ED00;

    // Clean campaign → three-stream dataset.
    let (clean, schedule) = collect(config, drowsy_seconds, &streams, &campaign, &[])?;
    let (train, eval) = split(config, &Dataset::from_recordings(&clean, &schedule)?)?;

    // Per-stream models: the IMU RNN stays native 3-class behind the
    // canonical projection; both camera views train 8-class heads.
    let imu_map = canonical_imu_projection();
    let labels8_train = train.labels();
    let labels3_train = train.labels3();
    let train_imu = train.imu_tensor()?;
    let train_front = train.frames_tensor(StreamId::CAMERA_FRONT)?;
    let train_side = train.frames_tensor(StreamId::CAMERA_SIDE)?;

    let (cnn_config, rnn_config) = (
        cnn_config(config, CanonicalBehavior::ALL.len()),
        rnn_config(config),
    );
    let mut rnn = ImuRnn::new(rnn_config, config.seed ^ 0x44);
    rnn.fit(&train_imu, &labels3_train, config.rnn_epochs)?;
    let mut front = FrameCnn::new(cnn_config, config.seed ^ 0xC99);
    front.fit(&train_front, &labels8_train, config.cnn_epochs)?;
    let mut side = FrameCnn::new(cnn_config, config.seed ^ 0x51DE);
    side.fit(&train_side, &labels8_train, config.cnn_epochs)?;

    // Training posteriors for the combiner fits.
    let rnn_probs = rnn.predict_proba(&train_imu)?;
    let front_probs = front.predict_proba(&train_front)?;
    let side_probs = side.predict_proba(&train_side)?;

    // The 2-stream baseline engine owns weight-identical model copies
    // (trained once, transplanted) so both engines see the same models.
    let rnn_weights = rnn.export_weights()?;
    let front_weights = front.export_weights();
    let classes = CanonicalBehavior::ALL.len();

    let imu_desc = ModalityDescriptor::new(StreamId::IMU, ClassMap::Projection(imu_map.clone()));
    let front_desc = ModalityDescriptor::new(StreamId::CAMERA_FRONT, ClassMap::Identity);
    let side_desc = ModalityDescriptor::new(StreamId::CAMERA_SIDE, ClassMap::Identity);

    let mut two = MultiModalEngine::new(classes, CombinerKind::Bayesian);
    let mut rnn2 = ImuRnn::new(rnn_config, config.seed ^ 0x44);
    rnn2.import_weights(&rnn_weights)?;
    let mut front2 = FrameCnn::new(cnn_config, config.seed ^ 0xC99);
    front2.import_weights(&front_weights)?;
    two.register(imu_desc.clone(), StreamModelSlot::Rnn(rnn2))?;
    two.register(front_desc.clone(), StreamModelSlot::Cnn(front2))?;
    two.fit_combiner(&[&rnn_probs, &front_probs], &labels8_train)?;

    let mut three = MultiModalEngine::new(classes, CombinerKind::Bayesian);
    three.register(imu_desc, StreamModelSlot::Rnn(rnn))?;
    three.register(front_desc, StreamModelSlot::Cnn(front))?;
    three.register(side_desc, StreamModelSlot::Cnn(side))?;
    three.fit_combiner(&[&rnn_probs, &front_probs, &side_probs], &labels8_train)?;

    // Faulted campaign: steady loss plus a terminal blackout on the
    // front-camera link only. Its recorded per-stream health drives the
    // subset policy, aggregated as the worst verdict across drivers.
    let session_end = schedule.iter().map(|s| s.end()).fold(0.0, f64::max);
    let front_link = LinkConfig {
        loss: FRONT_LOSS,
        faults: FaultConfig {
            blackout: Some((
                session_end * FRONT_BLACKOUT_FRAC,
                session_end + campaign.drain_grace,
            )),
            ..FaultConfig::default()
        },
        ..LinkConfig::default()
    };
    let front_fault = [(StreamId::CAMERA_FRONT, front_link)];
    let (faulted, _) = collect(config, drowsy_seconds, &streams, &campaign, &front_fault)?;
    let policy = HealthPolicy;
    let mut statuses: Vec<(StreamId, ModalityStatus)> = Vec::with_capacity(streams.len());
    for id in streams {
        let mut status = ModalityStatus::Healthy;
        for rec in &faulted {
            let health = rec.stream(id).and_then(|row| row.health);
            let sel = policy.select_subset(&[(id, health.as_ref())], session_end);
            status = worst_status(status, sel.status_of(id));
        }
        statuses.push((id, status));
    }
    let front_unusable = statuses
        .iter()
        .any(|(id, st)| *id == StreamId::CAMERA_FRONT && *st == ModalityStatus::Unavailable);

    // Every scenario scores the same clean evaluation split, so the
    // numbers differ only by which streams the engine could use.
    let eval_front = eval.frames(StreamId::CAMERA_FRONT)?;
    let eval_side = eval.frames(StreamId::CAMERA_SIDE)?;
    let eval_imu = eval.imu_tensor()?;
    let labels8_eval = eval.labels();
    let two_inputs = [
        (StreamId::IMU, StreamInput::Windows(&eval_imu)),
        (StreamId::CAMERA_FRONT, StreamInput::Frames(&eval_front)),
    ];
    let three_inputs = [
        (StreamId::IMU, StreamInput::Windows(&eval_imu)),
        (StreamId::CAMERA_FRONT, StreamInput::Frames(&eval_front)),
        (StreamId::CAMERA_SIDE, StreamInput::Frames(&eval_side)),
    ];
    let mut out = Vec::new();
    let two_stream = score_engine(&mut two, &two_inputs, &[], &labels8_eval, &mut out)?;
    let three_stream = score_engine(&mut three, &three_inputs, &[], &labels8_eval, &mut out)?;
    let front_only = score_engine(
        &mut three,
        &three_inputs,
        &[
            (StreamId::IMU, ModalityStatus::Unavailable),
            (StreamId::CAMERA_SIDE, ModalityStatus::Unavailable),
        ],
        &labels8_eval,
        &mut out,
    )?;
    let two_stream_front_lost =
        score_engine(&mut two, &two_inputs, &statuses, &labels8_eval, &mut out)?;
    let three_stream_front_lost = score_engine(
        &mut three,
        &three_inputs,
        &statuses,
        &labels8_eval,
        &mut out,
    )?;

    Ok(MultiviewAblation {
        eval_samples: eval.len(),
        front_only,
        two_stream,
        three_stream,
        two_stream_front_lost,
        three_stream_front_lost,
        front_unusable_under_fault: front_unusable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_config_collects_all_classes() {
        let config = ExperimentConfig::fast();
        let report = run_table1(&config, &collect_multimodal(&config).unwrap());
        assert_eq!(report.rows.len(), 6);
        for row in &report.rows {
            assert!(row.collected_frames > 0, "class {} empty", row.class);
            // Within a sane factor of the target (camera/transmit edge
            // effects allowed).
            let target = row.target_frames.max(1) as f64;
            let ratio = row.collected_frames as f64 / target;
            assert!(
                (0.5..2.0).contains(&ratio),
                "class {}: {} vs target {}",
                row.class,
                row.collected_frames,
                row.target_frames
            );
        }
        assert_eq!(
            report.total_collected,
            report
                .rows
                .iter()
                .map(|r| r.collected_frames)
                .sum::<usize>()
        );
    }

    #[test]
    fn multiview_ablation_keeps_three_streams_ahead_under_front_loss() {
        let ab = run_ablation_multiview(&MultiviewConfig::fast()).unwrap();
        // The seed fixes the evaluation split: `repro ablation_multiview
        // --fast` scores exactly these samples.
        assert_eq!(ab.eval_samples, 257);
        assert!(
            ab.front_unusable_under_fault,
            "blackout + loss should drive the front camera unusable: {ab:?}"
        );
        for v in [
            ab.front_only,
            ab.two_stream,
            ab.three_stream,
            ab.two_stream_front_lost,
            ab.three_stream_front_lost,
        ] {
            assert!((0.0..=1.0).contains(&v), "{ab:?}");
        }
        // The ISSUE gate: with the front camera lost, the 3-stream
        // engine (side + IMU keep fusing) must not fall behind the
        // 2-stream engine (reduced to the IMU projection alone).
        assert!(
            ab.three_stream_front_lost >= ab.two_stream_front_lost,
            "{ab:?}"
        );
    }

    #[test]
    fn canonical_imu_projection_extends_the_legacy_map() {
        let map = canonical_imu_projection();
        assert_eq!(map.len(), 8);
        // The six base classes reproduce the legacy 6→3 projection...
        assert_eq!(&map[..6], &[0, 1, 2, 0, 0, 0]);
        // ...and both drowsiness cues keep hands on the wheel.
        assert_eq!(&map[6..], &[0, 0]);
    }

    #[test]
    fn clocksync_ablation_shows_protocol_value() {
        let mut config = ExperimentConfig::fast();
        config.scale = 0.01;
        let ab = run_ablation_clocksync(&config).unwrap();
        assert!(ab.max_error_unsynced > ab.max_error_synced * 2.0);
        assert!(ab.max_error_synced < 0.05);
    }
}
