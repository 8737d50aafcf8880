//! End-to-end integration tests spanning every crate: world → collection
//! middleware → dataset → models → ensemble → engine.

use std::sync::Arc;

use darnet::collect::runtime::{run_campaign, CampaignConfig};
use darnet::collect::StreamId;
use darnet::core::dataset::{Dataset, IMU_FEATURES, WINDOW_LEN};
use darnet::core::experiment::{
    run_ablation_combiner, table2_from_stack, train_stack_on, ExperimentConfig,
};
use darnet::core::{CombinerKind, MultiModalEngine, StreamInput, StreamModelSlot};
use darnet::sim::schedule::{build_schedule, ScheduleConfig};
use darnet::sim::{CanonicalBehavior, DrivingWorld, Frame, WorldConfig};
use darnet::tensor::Tensor;

fn small_campaign() -> (Dataset, ExperimentConfig) {
    let config = ExperimentConfig {
        scale: 0.015,
        cnn_epochs: 4,
        rnn_epochs: 4,
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
    let recordings = run_campaign(
        &world,
        &schedule,
        &CampaignConfig {
            seed: config.seed ^ 0xCA11,
            ..CampaignConfig::default()
        },
        &StreamId::DARNET_PAIR,
        &[],
    )
    .expect("campaign runs");
    let dataset = Dataset::from_recordings(&recordings, &schedule).expect("dataset builds");
    (dataset, config)
}

#[test]
fn campaign_to_dataset_is_deterministic() {
    let (a, _) = small_campaign();
    let (b, _) = small_campaign();
    assert_eq!(a.len(), b.len());
    assert_eq!(a.class_counts(), b.class_counts());
    assert_eq!(a.samples()[0], b.samples()[0]);
}

#[test]
fn dataset_covers_all_classes_with_windows() {
    let (dataset, _) = small_campaign();
    assert!(dataset.len() > 400, "dataset too small: {}", dataset.len());
    // The six Table-1 classes; the 6-class script never goes drowsy.
    let counts = &dataset.class_counts()[..6];
    for (i, &c) in counts.iter().enumerate() {
        assert!(c > 0, "class {i} missing");
    }
    // Table-1 proportionality: reaching has the most frames, hair the
    // fewest.
    assert!(counts[5] > counts[4]);
    for s in dataset.samples() {
        assert_eq!(s.imu_window.len(), WINDOW_LEN * IMU_FEATURES);
    }
}

#[test]
fn full_stack_ensemble_beats_cnn_alone() {
    let (dataset, config) = small_campaign();
    let stack = train_stack_on(&config, &dataset).expect("stack trains");
    let report = table2_from_stack(&stack).expect("report computes");
    // The paper's central claim: adding the IMU modality through the
    // Bayesian combiner significantly outperforms the frame-only CNN.
    assert!(
        report.top1_cnn_rnn > report.top1_cnn + 0.05,
        "ensemble {} vs cnn {}",
        report.top1_cnn_rnn,
        report.top1_cnn
    );
    // IMU-only models are strong on 3 classes.
    assert!(report.imu_rnn_top1 > 0.8, "rnn imu {}", report.imu_rnn_top1);
    assert!(report.imu_svm_top1 > 0.8, "svm imu {}", report.imu_svm_top1);
    // Confusion matrices are over the same eval set.
    assert_eq!(report.cm_cnn.total(), report.cm_cnn_rnn.total());
}

#[test]
fn combiner_ablation_orders_strategies() {
    let (dataset, config) = small_campaign();
    let stack = train_stack_on(&config, &dataset).expect("stack trains");
    let ab = run_ablation_combiner(&stack).expect("ablation runs");
    // Any fusion beats no fusion on this dataset.
    assert!(ab.bayesian > ab.cnn_only);
    assert!(ab.product > ab.cnn_only);
}

/// One time-step's inputs for the paper's pair engine.
fn step_inputs<'a>(frame: &'a Frame, window: &'a Tensor) -> [(StreamId, StreamInput<'a>); 2] {
    [
        (
            StreamId::CAMERA_FRONT,
            StreamInput::Frames(std::slice::from_ref(frame)),
        ),
        (StreamId::IMU, StreamInput::Windows(window)),
    ]
}

#[test]
fn engine_classifies_held_out_steps_end_to_end() {
    let (dataset, config) = small_campaign();
    let stack = train_stack_on(&config, &dataset).expect("stack trains");
    let eval = stack.eval.clone();
    let mut engine = MultiModalEngine::darnet_pair(
        CombinerKind::Bayesian,
        stack.cnn,
        StreamModelSlot::Rnn(stack.rnn),
        stack.bn_rnn,
    )
    .expect("pair engine");
    let mut correct = 0;
    let n = eval.len().min(40);
    let mut out = Vec::new();
    for sample in eval.samples().iter().take(n) {
        let window = Tensor::from_vec(sample.imu_window.clone(), &[1, WINDOW_LEN, IMU_FEATURES])
            .expect("window shape");
        engine
            .classify_batch_into(&step_inputs(&sample.frames[0], &window), &mut out)
            .expect("classifies");
        assert!((out[0].scores.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        if out[0].behavior() == Some(sample.class) {
            correct += 1;
        }
    }
    assert!(
        correct as f64 / n as f64 > 0.5,
        "engine accuracy too low: {correct}/{n}"
    );
}

#[test]
fn svm_slot_works_in_engine() {
    let (dataset, config) = small_campaign();
    let stack = train_stack_on(&config, &dataset).expect("stack trains");
    let eval = stack.eval.clone();
    let mut engine = MultiModalEngine::darnet_pair(
        CombinerKind::Bayesian,
        stack.cnn,
        StreamModelSlot::Svm(stack.svm),
        stack.bn_svm,
    )
    .expect("pair engine");
    let sample = &eval.samples()[0];
    let window = Tensor::from_vec(sample.imu_window.clone(), &[1, WINDOW_LEN, IMU_FEATURES])
        .expect("window shape");
    let mut out = Vec::new();
    engine
        .classify_batch_into(&step_inputs(&sample.frames[0], &window), &mut out)
        .expect("classifies");
    assert_eq!(out[0].used, vec![StreamId::CAMERA_FRONT, StreamId::IMU]);
    assert_eq!(out[0].scores.len(), 6);
}

#[test]
fn behaviors_imu_mapping_consistency_through_pipeline() {
    let (dataset, _) = small_campaign();
    for (s, imu_class) in dataset.samples().iter().zip(dataset.labels3()) {
        // Table-1 invariant: only talking/texting carry task-specific IMU.
        match s.class {
            CanonicalBehavior::Talking => assert_eq!(imu_class, 1),
            CanonicalBehavior::Texting => assert_eq!(imu_class, 2),
            _ => assert_eq!(imu_class, 0),
        }
    }
}
