//! Regenerates **Figure 5**: confusion matrices for (a) CNN+RNN,
//! (b) CNN+SVM, and (c) CNN-only on the collected dataset.

use darnet_bench::{experiment_config, header, pct};
use darnet_core::experiment::{table2_from_stack, train_stack};
use darnet_sim::CanonicalBehavior;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = experiment_config();
    let stack = train_stack(&config)?;
    let report = table2_from_stack(&stack)?;
    let names: Vec<&str> = CanonicalBehavior::TABLE1.iter().map(|b| b.name()).collect();

    header("Figure 5a: CNN+RNN (DarNet) confusion matrix");
    println!("top-1 {}", pct(report.top1_cnn_rnn));
    println!("{}", report.cm_cnn_rnn.to_table(&names));

    header("Figure 5b: CNN+SVM confusion matrix");
    println!("top-1 {}", pct(report.top1_cnn_svm));
    println!("{}", report.cm_cnn_svm.to_table(&names));

    header("Figure 5c: CNN (frame data only) confusion matrix");
    println!("top-1 {}", pct(report.top1_cnn));
    println!("{}", report.cm_cnn.to_table(&names));

    // The paper's headline per-class observation: texting accuracy jumps
    // from 36% (CNN) to 87% (CNN+RNN).
    let texting = CanonicalBehavior::Texting.index();
    println!(
        "texting accuracy: CNN {} -> CNN+RNN {}",
        pct(report.cm_cnn.per_class_accuracy()[texting].unwrap_or(0.0)),
        pct(report.cm_cnn_rnn.per_class_accuracy()[texting].unwrap_or(0.0)),
    );
    Ok(())
}
