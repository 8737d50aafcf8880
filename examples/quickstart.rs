//! Quickstart: collect a short two-modality session through the DarNet
//! middleware, train a small stack, and classify live time-steps.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::error::Error;
use std::sync::Arc;

use darnet::collect::runtime::{run_campaign, CampaignConfig};
use darnet::collect::StreamId;
use darnet::core::dataset::Dataset;
use darnet::core::experiment::{train_stack_on, ExperimentConfig};
use darnet::core::{CombinerKind, MultiModalEngine, StreamInput, StreamModelSlot};
use darnet::sim::{CanonicalBehavior, DrivingWorld, Segment, WorldConfig};
use darnet::tensor::Tensor;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A synthetic world: 5 drivers, dash camera + phone IMU.
    let world = Arc::new(DrivingWorld::new(WorldConfig::default()));

    // 2. A scripted collection session per the paper's protocol
    //    (passenger-instructed 15 s distraction segments).
    let mut schedule = Vec::new();
    for driver in 0..world.driver_count() {
        let mut t = 0.0;
        for &behavior in CanonicalBehavior::TABLE1.iter() {
            schedule.push(Segment {
                driver,
                behavior,
                start: t,
                duration: 15.0,
            });
            t += 15.0;
        }
    }

    // 3. Run the collection campaign: agents poll every 25 ms, timestamp
    //    with drifting clocks, batch over a jittery link; the controller
    //    re-syncs clocks every 5 s, re-orders, interpolates to 4 Hz, and
    //    smooths.
    println!("collecting {} driver sessions...", world.driver_count());
    let campaign = CampaignConfig::default();
    let recordings = run_campaign(&world, &schedule, &campaign, &StreamId::DARNET_PAIR, &[])?;
    let dataset = Dataset::from_recordings(&recordings, &schedule)?;
    println!(
        "collected {} multimodal samples ({} per class on average)",
        dataset.len(),
        dataset.len() / 6
    );

    // 4. Train the full DarNet stack (CNN + BiLSTM + SVM + Bayesian
    //    combiners) on an 80/20 split.
    let config = ExperimentConfig {
        cnn_epochs: 5,
        rnn_epochs: 5,
        ..ExperimentConfig::fast()
    };
    println!("training CNN, BiLSTM, SVM and Bayesian combiners...");
    let stack = train_stack_on(&config, &dataset)?;

    // 5. Assemble the analytics engine and classify held-out time-steps
    //    through the session API, exactly as the deployed system would
    //    per frame: one reused window tensor, one reused result vector,
    //    and the engine's own workspace behind them. After the first call
    //    warms the buffer pool, every subsequent step runs without a
    //    single heap allocation (DESIGN.md §12).
    let eval = stack.eval.clone();
    let mut engine = MultiModalEngine::darnet_pair(
        CombinerKind::Bayesian,
        stack.cnn,
        StreamModelSlot::Rnn(stack.rnn),
        stack.bn_rnn,
    )?;
    let mut window = Tensor::zeros(&[
        1,
        darnet::core::dataset::WINDOW_LEN,
        darnet::core::dataset::IMU_FEATURES,
    ]);
    let mut result = Vec::new();
    let mut correct = 0;
    let shown = eval.len().min(10);
    for (i, sample) in eval.samples().iter().take(shown).enumerate() {
        window.data_mut().copy_from_slice(&sample.imu_window);
        let inputs = [
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&sample.frames)),
            (StreamId::IMU, StreamInput::Windows(&window)),
        ];
        engine.classify_batch_into(&inputs, &mut result)?;
        let step = &result[0];
        let predicted = step.behavior().map_or("-", |b| b.name());
        let ok = step.behavior() == Some(sample.class);
        if ok {
            correct += 1;
        }
        println!(
            "step {i}: true={:<16} predicted={:<16} confidence={:.2} {}",
            sample.class.name(),
            predicted,
            step.scores.iter().cloned().fold(0.0f32, f32::max),
            if ok { "ok" } else { "MISS" }
        );
    }
    let (hits, misses) = engine.workspace_stats();
    println!("\n{correct}/{shown} correct on the first held-out steps");
    println!(
        "workspace: {hits} pooled checkouts, {misses} cold allocations \
         (cold count stops growing after the first step)"
    );
    Ok(())
}
