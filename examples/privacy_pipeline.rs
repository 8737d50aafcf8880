//! Privacy pipeline (paper §4.3, Figure 3): frames are down-sampled on
//! the device before transmission; the server picks the matching dCNN
//! student (trained by unsupervised distillation) for classification.
//! Prints the bandwidth ledger and the accuracy/privacy trade-off.
//!
//! ```text
//! cargo run --release --example privacy_pipeline
//! ```

use std::error::Error;

use darnet::collect::{encode_batch, Batch, SensorReading, StampedReading};
use darnet::core::dataset::frames_to_tensor;
use darnet::core::models::{CnnConfig, FrameCnn};
use darnet::core::privacy::{distill_dcnn, DistillConfig, Downsampler, PrivacyLevel};
use darnet::sim::{DrivingWorld, ExtendedBehavior, Frame, WorldConfig};

fn main() -> Result<(), Box<dyn Error>> {
    let world = DrivingWorld::new(WorldConfig {
        drivers: 4,
        ..WorldConfig::default()
    });

    // A small labeled dataset over a distinctive subset of the paper's
    // 18-class extended taxonomy (the full Table-3 run lives in
    // `repro table3`). Classes are interleaved so the contiguous split
    // stays stratified.
    let classes = [
        ExtendedBehavior::NormalDriving,
        ExtendedBehavior::Drinking,
        ExtendedBehavior::Hair,
        ExtendedBehavior::ReachingSide,
        ExtendedBehavior::ReachingBack,
        ExtendedBehavior::Smoking,
    ];
    let mut frames: Vec<Frame> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for k in 0..30 {
        for (ci, &c) in classes.iter().enumerate() {
            let driver = k % 4;
            frames.push(world.render_extended_frame(driver, c, k as f64 * 0.9));
            labels.push(ci);
        }
    }
    let n_train = frames.len() * 4 / 5;
    println!(
        "dataset: {} frames, {} train / {} eval",
        frames.len(),
        n_train,
        frames.len() - n_train
    );

    // Teacher CNN at full resolution.
    let mut teacher = FrameCnn::new(
        CnnConfig {
            classes: 6,
            width: 0.75,
            ..CnnConfig::default()
        },
        7,
    );
    let train_tensor = frames_to_tensor(&frames[..n_train])?;
    println!("training teacher CNN...");
    teacher.fit(&train_tensor, &labels[..n_train], 10)?;
    let eval_tensor = frames_to_tensor(&frames[n_train..])?;
    let teacher_acc = teacher.evaluate(&eval_tensor, &labels[n_train..])?;
    println!(
        "teacher top-1 on held-out frames: {:.1}%\n",
        teacher_acc * 100.0
    );

    // Bandwidth ledger: what each privacy level costs on the wire.
    let sample_frame = &frames[0];
    let wire_size = |f: &Frame| {
        encode_batch(&Batch {
            agent_id: 0,
            seq: 0,
            readings: vec![StampedReading {
                timestamp: 0.0,
                reading: SensorReading::Frame(f.clone()),
            }],
        })
        .len()
    };
    let downsampler = Downsampler::new(sample_frame.width());
    let full_bytes = wire_size(sample_frame);
    println!(
        "{:<10} {:>10} {:>12} {:>12}",
        "level", "pixels", "wire bytes", "reduction"
    );
    println!(
        "{:<10} {:>10} {:>12} {:>12}",
        "full", "48x48", full_bytes, "1x"
    );
    for level in PrivacyLevel::ALL {
        let small = downsampler.distort(sample_frame, level);
        let bytes = wire_size(&small);
        println!(
            "{:<10} {:>10} {:>12} {:>11}x",
            level.model_name(),
            format!("{}x{}", small.width(), small.height()),
            bytes,
            level.data_reduction()
        );
    }

    // Distill one student per level (unsupervised — only teacher outputs)
    // and measure the accuracy each privacy level retains.
    println!("\ndistilling dCNN students (unsupervised, L2 against teacher outputs)...");
    let unlabeled: Vec<Frame> = frames[..n_train].to_vec();
    println!("{:<10} {:>10}", "model", "top-1");
    println!("{:<10} {:>9.1}%", "CNN", teacher_acc * 100.0);
    for level in PrivacyLevel::ALL {
        let mut student = distill_dcnn(
            &mut teacher,
            &unlabeled,
            level,
            &DistillConfig {
                epochs: 3,
                ..DistillConfig::default()
            },
            100 + level.divisor() as u64,
        )?;
        let distorted = downsampler.roundtrip_tensor(&frames[n_train..], level)?;
        let acc = student.evaluate(&distorted, &labels[n_train..])?;
        println!("{:<10} {:>9.1}%", level.model_name(), acc * 100.0);
    }
    Ok(())
}
