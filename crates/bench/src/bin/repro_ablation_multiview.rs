//! Ablation: the N-stream modality registry under per-stream loss
//! (DESIGN.md §17).
//!
//! A clean canonical campaign (8 classes, IMU + front + side camera)
//! trains per-stream models and fits 2- and 3-parent Bayesian combiners;
//! a second campaign injects loss and a blackout on the front-camera
//! link only, and that campaign's *recorded* health verdicts gate fusion
//! on the clean evaluation split. The paper's two-stream pairing is the
//! N=2 special case; the registry's value shows when a stream dies.
//!
//! Flags:
//!
//! * `--fast`, `--json`, `--out PATH`, `--compare PATH` — the shared
//!   gated-bench conventions, see [`darnet_bench::gate`].
//! * `--check` — enforce the acceptance gates: the fault campaign must
//!   actually knock the front camera out, and the 3-stream engine under
//!   that loss must stay at or above the 2-stream engine under the same
//!   loss (graceful degradation) and within reach of the 2-stream
//!   engine's clean accuracy.

use std::collections::BTreeMap;

use darnet_bench::gate::{Gate, TOLERANCE};
use darnet_bench::{multiview_config, pct};
use darnet_core::experiment::run_ablation_multiview;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = multiview_config();
    let ab = run_ablation_multiview(&config)?;

    let mut results = BTreeMap::new();
    results.insert("eval_samples".to_string(), ab.eval_samples as f64);
    results.insert("rate_front_only".to_string(), ab.front_only);
    results.insert("rate_two_stream_clean".to_string(), ab.two_stream);
    results.insert("rate_three_stream_clean".to_string(), ab.three_stream);
    results.insert(
        "rate_two_stream_front_lost".to_string(),
        ab.two_stream_front_lost,
    );
    results.insert(
        "rate_three_stream_front_lost".to_string(),
        ab.three_stream_front_lost,
    );
    results.insert(
        "rate_front_unusable_under_fault".to_string(),
        f64::from(ab.front_unusable_under_fault),
    );

    Gate::start(
        "Ablation: N-stream registry vs front-camera loss (8-class Top-1)",
        // `--fast` already picked the preset `ab` ran at.
        |_fast| results,
        |_| {
            println!("{:<34} {:>10}", "front camera only", pct(ab.front_only));
            println!("{:<34} {:>10}", "IMU + front (N=2)", pct(ab.two_stream));
            println!(
                "{:<34} {:>10}",
                "IMU + front + side (N=3)",
                pct(ab.three_stream)
            );
            println!(
                "{:<34} {:>10}",
                "N=2, front lost",
                pct(ab.two_stream_front_lost)
            );
            println!(
                "{:<34} {:>10}",
                "N=3, front lost",
                pct(ab.three_stream_front_lost)
            );
            println!(
                "\nfault campaign marked the front camera unusable: {}",
                ab.front_unusable_under_fault
            );
        },
    )
    .finish(&["eval_samples"], |_, failures| {
        if !ab.front_unusable_under_fault {
            failures.fail(
                "the fault campaign did not drive the front camera to Unavailable — the \
                 loss scenario is not exercising the subset policy",
            );
        }
        if ab.three_stream_front_lost < ab.two_stream_front_lost {
            failures.fail(format_args!(
                "3-stream accuracy under front loss ({}) fell below the 2-stream engine \
                 under the same loss ({})",
                pct(ab.three_stream_front_lost),
                pct(ab.two_stream_front_lost)
            ));
        }
        // The headline claim: losing the front camera costs the 3-stream
        // registry at most the comparison tolerance relative to the
        // 2-stream engine's *clean* accuracy — the side view absorbs the
        // loss instead of collapsing to the IMU projection.
        if ab.three_stream_front_lost < ab.two_stream * (1.0 - TOLERANCE) {
            failures.fail(format_args!(
                "3-stream accuracy under front loss ({}) is more than {:.0}% below the \
                 clean 2-stream baseline ({})",
                pct(ab.three_stream_front_lost),
                TOLERANCE * 100.0,
                pct(ab.two_stream)
            ));
        }
    });
    Ok(())
}
