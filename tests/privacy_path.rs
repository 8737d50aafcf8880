//! Integration tests for the privacy-preserving path: distortion,
//! distillation, wire-size accounting, and the engine's private
//! classification route.
#![expect(
    clippy::disallowed_methods,
    reason = "tests write Figure 4's files to a temp dir and read them back"
)]

use darnet::collect::{encode_batch, Batch, SensorReading, StampedReading};
use darnet::core::dataset::frames_to_tensor;
use darnet::core::models::{CnnConfig, FrameCnn};
use darnet::core::privacy::{distill_dcnn, DistillConfig, Downsampler, PrivacyLevel};
use darnet::sim::{DrivingWorld, ExtendedBehavior, Frame, WorldConfig};

fn small_privacy_setup() -> (DrivingWorld, Vec<Frame>, Vec<usize>) {
    let world = DrivingWorld::new(WorldConfig {
        drivers: 3,
        ..WorldConfig::default()
    });
    let mut frames = Vec::new();
    let mut labels = Vec::new();
    // Use a visually distinct 4-class subset of the extended taxonomy so
    // the tiny test model converges quickly.
    let classes = [
        ExtendedBehavior::NormalDriving,
        ExtendedBehavior::Drinking,
        ExtendedBehavior::Hair,
        ExtendedBehavior::ReachingSide,
    ];
    // Interleave classes so a contiguous 80/20 split stays stratified.
    for k in 0..40 {
        for (ci, &c) in classes.iter().enumerate() {
            frames.push(world.render_extended_frame(k % 3, c, k as f64 * 0.7));
            labels.push(ci);
        }
    }
    (world, frames, labels)
}

#[test]
fn distillation_transfers_teacher_behaviour_to_student() {
    let (_, frames, labels) = small_privacy_setup();
    let n_train = frames.len() * 4 / 5;
    let mut teacher = FrameCnn::new(
        CnnConfig {
            classes: 4,
            width: 0.75,
            ..CnnConfig::default()
        },
        11,
    );
    let train = frames_to_tensor(&frames[..n_train]).unwrap();
    teacher.fit(&train, &labels[..n_train], 12).unwrap();
    let eval = frames_to_tensor(&frames[n_train..]).unwrap();
    let teacher_acc = teacher.evaluate(&eval, &labels[n_train..]).unwrap();
    assert!(teacher_acc > 0.45, "teacher too weak: {teacher_acc}");

    let mut student = distill_dcnn(
        &mut teacher,
        &frames[..n_train],
        PrivacyLevel::Low,
        &DistillConfig {
            epochs: 5,
            ..DistillConfig::default()
        },
        13,
    )
    .unwrap();
    let ds = Downsampler::new(48);
    let eval_distorted = ds
        .roundtrip_tensor(&frames[n_train..], PrivacyLevel::Low)
        .unwrap();
    let student_acc = student
        .evaluate(&eval_distorted, &labels[n_train..])
        .unwrap();
    // dCNN-L keeps most of the teacher's accuracy (paper: it can even
    // exceed it).
    assert!(
        student_acc > teacher_acc * 0.6,
        "student {student_acc} vs teacher {teacher_acc}"
    );
}

#[test]
fn higher_privacy_levels_degrade_gracefully_in_pixels() {
    let (world, _, _) = small_privacy_setup();
    let frame = world.render_extended_frame(0, ExtendedBehavior::Drinking, 1.0);
    let ds = Downsampler::new(48);
    let mut prev_err = 0.0f32;
    for level in PrivacyLevel::ALL {
        let rt = ds.roundtrip(&frame, level);
        let err: f32 = frame
            .pixels()
            .iter()
            .zip(rt.pixels())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err > prev_err, "distortion not monotone at {level}");
        prev_err = err;
    }
}

#[test]
fn wire_savings_match_data_reduction_factors() {
    let frame = Frame::new(48, 48);
    let ds = Downsampler::new(48);
    let wire = |f: &Frame| {
        encode_batch(&Batch {
            agent_id: 0,
            seq: 0,
            readings: vec![StampedReading {
                timestamp: 0.0,
                reading: SensorReading::Frame(f.clone()),
            }],
        })
        .len() as f64
    };
    let overhead = wire(&Frame::new(1, 1)) - 1.0;
    let full = wire(&frame) - overhead;
    for level in PrivacyLevel::ALL {
        let small = wire(&ds.distort(&frame, level)) - overhead;
        let ratio = full / small;
        assert!(
            (ratio - level.data_reduction() as f64).abs() < 0.01,
            "{level}: wire ratio {ratio}"
        );
    }
}

#[test]
fn figure4_artifacts_are_written() {
    let dir = std::env::temp_dir().join("darnet_fig4_test");
    std::fs::create_dir_all(&dir).unwrap();
    let paths = darnet::core::experiment::run_fig4(&dir, 42).unwrap();
    assert_eq!(paths.len(), 4);
    for p in &paths {
        let data = std::fs::read(p).unwrap();
        assert!(data.starts_with(b"P5\n"), "{} not a PGM", p.display());
    }
    // Full frame is 48x48; dCNN-H is 4x4.
    let full = std::fs::read(&paths[0]).unwrap();
    let high = std::fs::read(&paths[3]).unwrap();
    assert!(full.len() > high.len() * 50);
}
