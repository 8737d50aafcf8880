//! `repro <section>… [--fast]`: the paper's tables, figures and ablations,
//! one section each (`all`: every section, in `REPRO_fast.sha256`'s order).
//! The first section that needs the default campaign's dataset, the
//! [`TrainedStack`] or the 18-class [`PrivacyTeacher`] builds it; later
//! ones borrow it. All is seeded, so a section prints the same bytes alone
//! as after the sections it shares with. Several sections each print a
//! `### repro <section>` line first, and each one's wall time goes to
//! stderr as `repro: <section> <seconds>`. A section may hold its result
//! to criteria of its own; each one it misses goes to stderr as
//! `MISSED: <section>: <criterion>`, and under `--check` a miss makes the
//! run exit 1.
#![expect(
    clippy::disallowed_methods,
    reason = "the driver times its sections, and Figure 4 writes its image files"
)]

use std::error::Error;
use std::fmt::Write as _;
use std::time::Instant;

use darnet_bench::{header, pct};
use darnet_core::dataset::Dataset;
use darnet_core::eval::ConfusionMatrix;
use darnet_core::experiment::{
    collect_multimodal, fit_privacy_teacher, run_ablation_alignment, run_ablation_clocksync,
    run_ablation_combiner, run_ablation_distill, run_ablation_multiview, run_ablation_pretrain,
    run_fig4, run_table1, run_table3, table2_from_stack, train_stack_on, ExperimentConfig,
    MultiviewConfig, PrivacyExperimentConfig, PrivacyTeacher, TrainedStack,
};
use darnet_core::privacy::PrivacyLevel;
use darnet_core::Result as CoreResult;
use darnet_sim::CanonicalBehavior;

type Outcome = Result<(), Box<dyn Error>>;

/// A section appends its report to the `String`.
type Section = fn(&mut Cache, &mut String) -> Outcome;

/// Every section, in the order `all` runs them.
const SECTIONS: [(&str, Section); 11] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("ablation_alignment", ablation_alignment),
    ("ablation_clocksync", ablation_clocksync),
    ("ablation_combiner", ablation_combiner),
    ("ablation_distill", ablation_distill),
    ("ablation_multiview", ablation_multiview),
    ("ablation_pretrain", ablation_pretrain),
];

/// N=3 with the front camera lost must keep at least this share of N=2
/// clean (`ablation_multiview`'s criterion).
const MULTIVIEW_CLEAN_SHARE: f64 = 0.85;

/// The sections asked for, in order, and whether `--fast` and `--check`
/// were.
fn parse(args: &[String]) -> Result<(Vec<&'static str>, bool, bool), String> {
    let names = SECTIONS.map(|(name, _)| name);
    let valid = format!("the sections are {}, all", names.join(", "));
    let (mut sections, mut fast, mut check) = (Vec::new(), false, false);
    for arg in args {
        match arg.as_str() {
            "--fast" => fast = true,
            "--check" => check = true,
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "unknown flag {flag:?}; the flags are --fast, --check"
                ))
            }
            "all" => sections.extend(names),
            other => match names.iter().find(|name| **name == other) {
                Some(name) => sections.push(*name),
                None => return Err(format!("unknown section {other:?}; {valid}")),
            },
        }
    }
    if sections.is_empty() {
        return Err(format!(
            "usage: repro <section>… [--fast] [--check]; {valid}"
        ));
    }
    Ok((sections, fast, check))
}

/// A lazily built artifact and how many times it was built.
struct Slot<T>(Option<T>, usize);

impl<T> Slot<T> {
    fn get_or_fill(&mut self, build: impl FnOnce() -> CoreResult<T>) -> CoreResult<&mut T> {
        let value = match self.0.take() {
            Some(value) => value,
            None => {
                self.1 += 1;
                build()?
            }
        };
        Ok(self.0.insert(value))
    }
}

/// The presets the sections run at, what they share, and the criteria
/// the running section missed.
struct Cache {
    experiment: ExperimentConfig,
    privacy: PrivacyExperimentConfig,
    multiview: MultiviewConfig,
    dataset: Slot<Dataset>,
    stack: Slot<TrainedStack>,
    teacher: Slot<PrivacyTeacher>,
    missed: Vec<String>,
}

impl Cache {
    /// The `--fast` presets, or the full ones, with nothing built yet.
    fn new(fast: bool) -> Self {
        let mut cache = Cache {
            experiment: ExperimentConfig::paper(),
            privacy: PrivacyExperimentConfig::paper(),
            multiview: MultiviewConfig::paper(),
            dataset: Slot(None, 0),
            stack: Slot(None, 0),
            teacher: Slot(None, 0),
            missed: Vec::new(),
        };
        if fast {
            cache.experiment = ExperimentConfig::fast();
            cache.privacy = PrivacyExperimentConfig::fast();
            cache.multiview = MultiviewConfig::fast();
        }
        cache
    }

    fn dataset(&mut self) -> CoreResult<&Dataset> {
        let config = &self.experiment;
        Ok(self.dataset.get_or_fill(|| collect_multimodal(config))?)
    }

    fn stack(&mut self) -> CoreResult<&TrainedStack> {
        let (config, dataset) = (&self.experiment, &mut self.dataset);
        Ok(self.stack.get_or_fill(|| {
            train_stack_on(config, dataset.get_or_fill(|| collect_multimodal(config))?)
        })?)
    }

    fn teacher(&mut self) -> CoreResult<&mut PrivacyTeacher> {
        let config = &self.privacy;
        self.teacher.get_or_fill(|| fit_privacy_teacher(config))
    }
}

/// `title`'s header, then one `label  percentage` line per row, labels
/// padded to `width`.
fn scores(out: &mut String, title: &str, width: usize, rows: &[(&str, f64)]) -> Outcome {
    out.push_str(&header(title));
    for (label, x) in rows {
        writeln!(out, "{label:<width$} {:>10}", pct(*x))?;
    }
    Ok(())
}

/// One `model  Hit@1  (paper)` line per row.
fn hits(out: &mut String, rows: &[(&str, f64, &str)]) -> Outcome {
    for (model, x, paper) in rows {
        writeln!(out, "{model:<10} {:>10} {paper:>12}", pct(*x))?;
    }
    Ok(())
}

fn table1(cache: &mut Cache, out: &mut String) -> Outcome {
    let config = cache.experiment;
    let (scale, drivers) = (config.scale, config.drivers);
    let title = "Table 1: Driver behaviour classes (collected dataset)";
    out.push_str(&header(title));
    writeln!(
        out,
        "scale = {scale} of the paper's frame counts ({drivers} drivers, 4 fps camera)\n"
    )?;
    let report = run_table1(&config, cache.dataset()?);
    writeln!(
        out,
        "{:<5} {:<18} {:<12} {:>12} {:>12} {:>12}",
        "Class", "Description", "Data Types", "Paper", "Target", "Collected"
    )?;
    for row in &report.rows {
        writeln!(
            out,
            "{:<5} {:<18} {:<12} {:>12} {:>12} {:>12}",
            row.class,
            row.description,
            row.data_types,
            row.paper_frames,
            row.target_frames,
            row.collected_frames
        )?;
    }
    writeln!(out, "\ntotal collected frames: {}", report.total_collected)?;
    Ok(())
}

/// Table 2 plus the §5.2 IMU-only numbers. Shape criteria: CNN+RNN ≥
/// CNN+SVM ≫ CNN alone; RNN > SVM on the IMU stream.
fn table2(cache: &mut Cache, out: &mut String) -> Outcome {
    let title = "Table 2: Ensemble model Top-1 classification results";
    out.push_str(&header(title));
    let report = table2_from_stack(cache.stack()?)?;
    writeln!(out, "{:<10} {:>10} {:>12}", "Model", "Hit@1", "(paper)")?;
    let fused = [
        ("CNN+RNN", report.top1_cnn_rnn, "87.02%"),
        ("CNN+SVM", report.top1_cnn_svm, "86.23%"),
        ("CNN", report.top1_cnn, "73.88%"),
    ];
    hits(out, &fused)?;
    out.push_str(&header("IMU stream alone (3 classes, §5.2)"));
    let imu = [
        ("RNN", report.imu_rnn_top1, "97.44%"),
        ("SVM", report.imu_svm_top1, "95.37%"),
    ];
    hits(out, &imu)
}

/// Table 3: CNN vs. dCNN Top-1 on the 18-class dataset. Shape criteria:
/// dCNN-L ≥ CNN; dCNN-M within a few points; dCNN-H clearly degraded.
fn table3(cache: &mut Cache, out: &mut String) -> Outcome {
    let config = cache.privacy;
    let (drivers, seconds, width) = (config.drivers, config.seconds_per_class, config.cnn_width);
    out.push_str(&header("Table 3: CNN and dCNN Top-1 (18-class dataset)"));
    let setup = format!("{drivers} drivers, {seconds} s/class, teacher width {width}");
    writeln!(out, "{setup}\n")?;
    let report = run_table3(&config, cache.teacher()?)?;
    writeln!(out, "{:<10} {:>10} {:>12}", "Model", "Hit@1", "(paper)")?;
    let mut rows = vec![("CNN", report.cnn_top1, "78.87%")];
    let paper = ["80.00%", "77.78%", "63.13%"];
    for ((level, x), p) in report.dcnn_top1.iter().zip(paper) {
        rows.push((level.model_name(), *x, p));
    }
    hits(out, &rows)
}

/// Figure 4: a frame at full resolution and at the three distortion
/// levels, written as PGM images under the temp dir.
fn fig4(_: &mut Cache, out: &mut String) -> Outcome {
    let dir = std::env::temp_dir().join("darnet_fig4");
    std::fs::create_dir_all(&dir)?;
    out.push_str(&header("Figure 4: distortion levels"));
    for path in run_fig4(&dir, 0xDA12_2017)? {
        writeln!(out, "wrote {}", path.display())?;
    }
    writeln!(out)?;
    for level in PrivacyLevel::ALL {
        let (name, edge, less) = (
            level.model_name(),
            level.target_size(48),
            level.data_reduction(),
        );
        writeln!(out, "{name:8}  {edge}x{edge} px   {less}x less data")?;
    }
    Ok(())
}

/// Figure 5: confusion matrices of CNN+RNN, CNN+SVM and the CNN alone.
fn fig5(cache: &mut Cache, out: &mut String) -> Outcome {
    let report = table2_from_stack(cache.stack()?)?;
    let names: Vec<&str> = CanonicalBehavior::TABLE1.iter().map(|b| b.name()).collect();
    for (title, cm) in [
        ("5a: CNN+RNN (DarNet)", &report.cm_cnn_rnn),
        ("5b: CNN+SVM", &report.cm_cnn_svm),
        ("5c: CNN (frame data only)", &report.cm_cnn),
    ] {
        out.push_str(&header(&format!("Figure {title} confusion matrix")));
        writeln!(out, "top-1 {}", pct(cm.accuracy()))?;
        writeln!(out, "{}", cm.to_table(&names))?;
    }
    // The paper's headline per-class observation: texting accuracy jumps
    // from 36% (CNN) to 87% (CNN+RNN).
    let texting = |cm: &ConfusionMatrix| {
        pct(cm.per_class_accuracy()[CanonicalBehavior::Texting.index()].unwrap_or(0.0))
    };
    let (cnn, fused) = (texting(&report.cm_cnn), texting(&report.cm_cnn_rnn));
    writeln!(out, "texting accuracy: CNN {cnn} -> CNN+RNN {fused}")?;
    Ok(())
}

/// The controller's moving-average smoothing on vs. off (DESIGN.md §6, item 2).
fn ablation_alignment(cache: &mut Cache, out: &mut String) -> Outcome {
    let config = cache.experiment;
    let ab = run_ablation_alignment(&config, cache.stack()?)?;
    let title = "Ablation: controller smoothing (RNN 3-class eval Top-1)";
    let rows = [
        ("smoothing window = 3", ab.smoothed),
        ("smoothing disabled", ab.unsmoothed),
    ];
    scores(out, title, 28, &rows)
}

/// The 5-second master–slave clock-sync protocol on vs. off
/// (DESIGN.md §6, item 3).
fn ablation_clocksync(cache: &mut Cache, out: &mut String) -> Outcome {
    let ab = run_ablation_clocksync(&cache.experiment)?;
    let title = "Ablation: clock synchronization (max agent timestamp error)";
    out.push_str(&header(title));
    let (synced, unsynced) = (ab.max_error_synced, ab.max_error_unsynced);
    for (label, error) in [("5 s sync (paper)", synced), ("sync disabled", unsynced)] {
        writeln!(out, "{label:<24} {:>12.1} ms", error * 1000.0)?;
    }
    let drift = unsynced / synced.max(1e-9);
    let line = format!("without sync, timestamps drift {drift:.0}x further from controller time");
    writeln!(out, "\n{line}")?;
    Ok(())
}

/// Bayesian-network combiner vs. independence product vs. CNN only
/// (DESIGN.md §6, item 1).
fn ablation_combiner(cache: &mut Cache, out: &mut String) -> Outcome {
    let ab = run_ablation_combiner(cache.stack()?)?;
    let title = "Ablation: modality fusion strategy (eval Top-1)";
    let rows = [
        ("Bayesian network", ab.bayesian),
        ("Probability product", ab.product),
        ("CNN only", ab.cnn_only),
    ];
    scores(out, title, 22, &rows)
}

/// The paper's label-free dCNN distillation vs. the teacher on distorted
/// frames and supervised training on them (DESIGN.md §6, item 5), at dCNN-L.
fn ablation_distill(cache: &mut Cache, out: &mut String) -> Outcome {
    let config = cache.privacy;
    let ab = run_ablation_distill(&config, cache.teacher()?, PrivacyLevel::Low)?;
    let title = "Ablation: dCNN training strategy at dCNN-L (eval Top-1)";
    let rows = [
        ("teacher, full resolution", ab.teacher_full),
        ("teacher applied to distorted frames", ab.teacher_distorted),
        ("supervised on distorted frames", ab.supervised),
        ("distilled (paper §4.3, label-free)", ab.distilled),
    ];
    scores(out, title, 40, &rows)
}

/// The N-stream registry under front-camera loss (DESIGN.md §17). Its
/// criteria: the fault campaign leaves the front camera unusable, and
/// N=3 without it scores at least N=2 under the same loss and
/// [`MULTIVIEW_CLEAN_SHARE`] of N=2 clean.
fn ablation_multiview(cache: &mut Cache, out: &mut String) -> Outcome {
    let ab = run_ablation_multiview(&cache.multiview)?;
    let (clean2, lost2, lost3) = (
        ab.two_stream,
        ab.two_stream_front_lost,
        ab.three_stream_front_lost,
    );
    let title = "Ablation: N-stream registry vs front-camera loss (8-class Top-1)";
    let rows = [
        ("front camera only", ab.front_only),
        ("IMU + front (N=2)", clean2),
        ("IMU + front + side (N=3)", ab.three_stream),
        ("N=2, front lost", lost2),
        ("N=3, front lost", lost3),
    ];
    scores(out, title, 34, &rows)?;
    let unusable = ab.front_unusable_under_fault;
    writeln!(
        out,
        "\nfault campaign marked the front camera unusable: {unusable}"
    )?;
    if !unusable {
        let criterion = "the fault campaign left the front camera usable";
        cache.missed.push(criterion.into());
    }
    let floor = lost2.max(clean2 * MULTIVIEW_CLEAN_SHARE);
    if lost3 < floor {
        let (lost3, floor) = (pct(lost3), pct(floor));
        let criterion = format!("N=3 without the front camera: {lost3} < {floor}");
        cache.missed.push(criterion);
    }
    Ok(())
}

/// Proxy pre-training + fine-tuning vs. from-scratch training at the same
/// fine-tuning budget (DESIGN.md §6, item 4).
fn ablation_pretrain(cache: &mut Cache, out: &mut String) -> Outcome {
    let config = cache.experiment;
    let ab = run_ablation_pretrain(&config, cache.dataset()?)?;
    let title = "Ablation: CNN transfer learning (eval Top-1 at equal fine-tune budget)";
    let rows = [
        ("pre-trained + fine-tuned", ab.pretrained),
        ("from scratch", ab.from_scratch),
    ];
    scores(out, title, 28, &rows)
}

/// Runs `name`'s section on `cache` and returns its report.
fn run(cache: &mut Cache, name: &str) -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    if let Some((_, section)) = SECTIONS.iter().find(|(n, _)| *n == name) {
        section(cache, &mut out)?;
    }
    Ok(out)
}

fn main() -> Outcome {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sections, fast, check) = parse(&args).unwrap_or_else(|message| {
        eprintln!("repro: {message}");
        std::process::exit(2)
    });
    let mut cache = Cache::new(fast);
    let mut missed = false;
    for &name in &sections {
        if sections.len() > 1 {
            println!("### repro {name}");
        }
        let start = Instant::now();
        print!("{}", run(&mut cache, name)?);
        eprintln!("repro: {name} {:.1}", start.elapsed().as_secs_f64());
        for criterion in cache.missed.drain(..) {
            eprintln!("MISSED: {name}: {criterion}");
            missed = true;
        }
    }
    if check && missed {
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_reads_sections_fast_and_check() {
        assert_eq!(
            parse(&args("table2 fig5 --fast")),
            Ok((vec!["table2", "fig5"], true, false))
        );
        assert_eq!(parse(&args("table1")), Ok((vec!["table1"], false, false)));
        assert_eq!(
            parse(&args("--check table2 ablation_multiview")),
            Ok((vec!["table2", "ablation_multiview"], false, true))
        );
        let (sections, fast, check) = parse(&args("all --fast --check")).unwrap();
        assert_eq!((sections.len(), fast, check), (11, true, true));
    }

    #[test]
    fn all_expands_to_every_section_in_digest_order() {
        let (sections, fast, check) = parse(&args("all --fast")).unwrap();
        assert!(fast && !check);
        let digests = include_str!("../../../../REPRO_fast.sha256");
        let keys: Vec<&str> = digests
            .lines()
            .filter_map(|line| line.split_whitespace().nth(1))
            .collect();
        assert_eq!(keys.len(), 11);
        assert_eq!(sections, keys);
    }

    #[test]
    fn parse_rejects_unknown_sections_and_flags() {
        for line in ["table9", "repro_table2"] {
            let message = parse(&args(line)).unwrap_err();
            assert!(message.starts_with("unknown section"), "{line}: {message}");
            assert!(
                message.contains("table1, table2, table3, fig4"),
                "{message}"
            );
            assert!(message.ends_with("ablation_pretrain, all"), "{message}");
        }
        // The flags are `--fast` and `--check`, nothing else.
        for line in [
            "ablation_multiview --json",
            "ablation_multiview --out m.json",
            "ablation_multiview --compare BENCH.json",
            "--seeds 3 table2",
        ] {
            let message = parse(&args(line)).unwrap_err();
            assert!(message.starts_with("unknown flag"), "{line}: {message}");
            assert!(message.ends_with("--fast, --check"), "{message}");
        }
        assert!(parse(&args("--fast --check"))
            .unwrap_err()
            .starts_with("usage"));
    }

    /// A cache at a few seconds' scale: 2 drivers, one epoch, tiny nets.
    fn micro_cache() -> Cache {
        let mut cache = Cache::new(true);
        cache.experiment = ExperimentConfig {
            scale: 0.006,
            frame_size: 24,
            cnn_epochs: 1,
            cnn_width: 0.25,
            rnn_epochs: 1,
            rnn_hidden: 4,
            drivers: 2,
            ..cache.experiment
        };
        cache.privacy = PrivacyExperimentConfig {
            drivers: 2,
            seconds_per_class: 1.0,
            frame_size: 24,
            cnn_width: 0.25,
            teacher_epochs: 1,
            distill: darnet_core::privacy::DistillConfig {
                epochs: 1,
                ..Default::default()
            },
            ..cache.privacy
        };
        cache
    }

    #[test]
    fn a_section_prints_the_same_bytes_alone_as_after_what_it_shares() {
        let shared = [
            "table1",
            "table2",
            "fig5",
            "ablation_alignment",
            "ablation_combiner",
            "ablation_pretrain",
            "table3",
            "ablation_distill",
        ];
        let mut cache = micro_cache();
        let reports: Vec<String> = shared
            .iter()
            .map(|name| run(&mut cache, name).unwrap())
            .collect();
        // Built once each, however many sections borrowed them.
        assert_eq!((cache.dataset.1, cache.stack.1, cache.teacher.1), (1, 1, 1));
        for (name, report) in shared.iter().zip(&reports) {
            assert!(report.starts_with("\n=== "), "{name}: {report}");
            let alone = run(&mut micro_cache(), name).unwrap();
            assert_eq!(&alone, report, "{name} alone");
        }
    }
}
