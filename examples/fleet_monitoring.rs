//! Fleet-monitoring scenario (the paper's motivating use case: "real-time
//! alerts to drivers and fleet managers"): run per-driver sessions, score
//! every time-step with the trained engine, and produce a per-driver
//! distraction report with alert windows.
//!
//! ```text
//! cargo run --release --example fleet_monitoring
//! ```

use std::error::Error;

use darnet::collect::StreamId;
use darnet::core::alerts::{AlertEvent, AlertPolicy, AlertTracker};
use darnet::core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet::core::experiment::{train_stack, ExperimentConfig};
use darnet::core::{CombinerKind, MultiModalEngine, StreamInput, StreamModelSlot};
use darnet::sim::CanonicalBehavior;
use darnet::tensor::Tensor;

fn main() -> Result<(), Box<dyn Error>> {
    // Train the stack on a collected campaign (reduced scale so the demo
    // finishes quickly; use ExperimentConfig::paper() for the full run).
    let config = ExperimentConfig {
        cnn_epochs: 5,
        rnn_epochs: 5,
        ..ExperimentConfig::fast()
    };
    println!("training fleet model on a collection campaign...");
    let stack = train_stack(&config)?;
    let eval = stack.eval.clone();
    let mut engine = MultiModalEngine::darnet_pair(
        CombinerKind::Bayesian,
        stack.cnn,
        StreamModelSlot::Rnn(stack.rnn),
        stack.bn_rnn,
    )?;
    let mut results = Vec::new();

    // Score the held-out steps per driver, tracking distraction episodes.
    let drivers: Vec<usize> = {
        let mut d: Vec<usize> = eval.samples().iter().map(|s| s.driver).collect();
        d.sort_unstable();
        d.dedup();
        d
    };
    println!(
        "\nfleet report ({} drivers, {} scored steps)",
        drivers.len(),
        eval.len()
    );
    println!(
        "{:<8} {:>8} {:>12} {:>14} {:>12}",
        "driver", "steps", "distracted", "worst class", "alerts"
    );
    for driver in drivers {
        let mut steps = 0usize;
        let mut distracted = 0usize;
        let mut per_class = [0usize; 6];
        // Debounced alerting: 3 consecutive distracted classifications
        // (~0.75 s at 4 Hz) raise an alert; 4 normal ones clear it.
        let mut tracker = AlertTracker::new(AlertPolicy::default());
        for sample in eval.samples().iter().filter(|s| s.driver == driver) {
            let window =
                Tensor::from_vec(sample.imu_window.clone(), &[1, WINDOW_LEN, IMU_FEATURES])?;
            let inputs = [
                (
                    StreamId::CAMERA_FRONT,
                    // A pair sample holds one frame: the front camera's.
                    StreamInput::Frames(&sample.frames),
                ),
                (StreamId::IMU, StreamInput::Windows(&window)),
            ];
            engine.classify_step_into(&inputs, &mut results)?;
            let result = &results[0];
            steps += 1;
            if result.behavior() != Some(CanonicalBehavior::NormalDriving) {
                distracted += 1;
                per_class[result.class] += 1;
            }
            if let AlertEvent::Raised(_) = tracker.observe(result) {
                // Alert delivery would go to the driver/fleet dashboard.
            }
        }
        let alerts = tracker.raised_total();
        let worst = per_class
            .iter()
            .enumerate()
            .skip(1)
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| CanonicalBehavior::TABLE1[i].name())
            .unwrap_or("-");
        println!(
            "{:<8} {:>8} {:>11.1}% {:>14} {:>12}",
            driver,
            steps,
            distracted as f64 / steps.max(1) as f64 * 100.0,
            worst,
            alerts
        );
    }
    println!("\n(distraction rates are high because the evaluation split follows the paper's scripted-distraction protocol)");
    Ok(())
}
