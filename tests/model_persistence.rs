//! Integration test: a trained stack survives a save/load round-trip with
//! bit-identical behaviour — the contract behind the paper's promise to
//! release its learning models.
#![expect(
    clippy::disallowed_methods,
    reason = "the round trip saves its weight files under a temp dir"
)]

use darnet::collect::runtime::{run_campaign, CampaignConfig};
use darnet::collect::StreamId;
use darnet::core::dataset::Dataset;
use darnet::core::experiment::{train_stack_on, ExperimentConfig};
use darnet::core::models::{CnnConfig, FrameCnn, ImuRnn, RnnConfig};
use darnet::sim::schedule::{build_schedule, ScheduleConfig};
use darnet::sim::{DrivingWorld, WorldConfig};
use std::sync::Arc;

#[test]
fn trained_models_roundtrip_through_weight_files() {
    let config = ExperimentConfig {
        scale: 0.01,
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
    .unwrap();
    let dataset = Dataset::from_recordings(&recordings, &schedule).unwrap();
    let mut stack = train_stack_on(&config, dataset).unwrap();

    let dir = std::env::temp_dir().join("darnet_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cnn_path = dir.join("cnn.dnwt");
    let rnn_path = dir.join("rnn.dnwt");
    stack.cnn.save_weights(&cnn_path).unwrap();
    stack.rnn.save_weights(&rnn_path).unwrap();

    // Fresh models, different seeds, same architecture.
    let mut cnn2 = FrameCnn::new(
        CnnConfig {
            input_size: config.frame_size,
            classes: 6,
            width: config.cnn_width,
            ..CnnConfig::default()
        },
        999,
    );
    cnn2.load_weights(&cnn_path).unwrap();
    let mut rnn2 = ImuRnn::new(
        RnnConfig {
            hidden: config.rnn_hidden,
            depth: config.rnn_depth,
            ..RnnConfig::default()
        },
        998,
    );
    rnn2.load_weights(&rnn_path).unwrap();

    let eval_frames = stack.eval.frames_tensor(StreamId::CAMERA_FRONT).unwrap();
    let eval_windows = stack.eval.imu_tensor().unwrap();
    assert_eq!(
        stack.cnn.predict_proba(&eval_frames).unwrap(),
        cnn2.predict_proba(&eval_frames).unwrap()
    );
    assert_eq!(
        stack.rnn.predict_proba(&eval_windows).unwrap(),
        rnn2.predict_proba(&eval_windows).unwrap()
    );
}
