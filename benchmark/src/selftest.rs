//! `--selftest`: the repeatability evidence. Runs every workload as two
//! sets of untraced runs of this same binary, prints per-metric set
//! medians, quartiles and the worst single run, and fails if two sets of
//! the same code disagree by more than a metric's own bound. Also home to
//! the two files the package writes for itself: golden posteriors and
//! `BENCHMARK.json`.

use std::fmt::Write;
use std::process::Command;

use crate::json::{parse, Value};
use crate::metrics::{Spec, END_TO_END, PER_LAYER};
use crate::workload::{Workload, NOMINAL_SECONDS};
use crate::Res;

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (its default "exclusive" method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// One set of runs of one workload: `values[metric][run]`.
fn run_set(workload: &str, seeds: std::ops::Range<u64>) -> Res<Vec<Vec<f64>>> {
    let exe = std::env::current_exe()?;
    let mut values = vec![Vec::new(); END_TO_END.len()];
    for seed in seeds {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &NOMINAL_SECONDS.to_string(), "--trace", "0"])
            .output()?;
        let stdout = String::from_utf8(output.stdout)?;
        let line = stdout.lines().last().unwrap_or_default();
        let result = parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
        if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{workload} seed {seed} failed: {line}").into());
        }
        for (spec, column) in END_TO_END.iter().zip(&mut values) {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no {}", spec.name))?;
            column.push(value);
        }
        eprintln!("{workload} seed {seed} done");
    }
    Ok(values)
}

/// Runs the self-test with `runs` runs per set; fails if any two set
/// medians differ by more than the metric's bound.
pub fn run(runs: u64) -> Res<()> {
    let mut disagreements = Vec::new();
    println!(
        "| workload | metric | median A | median B | A→B | IQR/median A | IQR/median B | \
         worst run | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in Workload::NAMES {
        let sets = [
            run_set(workload, 1..runs + 1)?,
            run_set(workload, 101..runs + 101)?,
        ];
        for (i, spec) in END_TO_END.iter().enumerate() {
            let q = [quartiles(&sets[0][i]), quartiles(&sets[1][i])];
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let worst = sets
                .iter()
                .zip(q)
                .flat_map(|(set, q)| set[i].iter().map(move |v| (v / q[1] - 1.0).abs()))
                .fold(0.0, f64::max);
            let shift = q[1][1] / q[0][1] - 1.0;
            println!(
                "| {workload} | {} | {:.5} | {:.5} | {:+.2}% | {:.2}% | {:.2}% | {:.2}% | {:.0}% |",
                spec.name,
                q[0][1],
                q[1][1],
                shift * 100.0,
                spread(q[0]) * 100.0,
                spread(q[1]) * 100.0,
                worst * 100.0,
                spec.bound * 100.0,
            );
            if shift.abs() > spec.bound {
                disagreements.push(format!(
                    "{workload}/{}: set medians {} and {} differ by {:.2}% (bound {:.0}%)",
                    spec.name,
                    q[0][1],
                    q[1][1],
                    shift * 100.0,
                    spec.bound * 100.0
                ));
            }
        }
    }
    if disagreements.is_empty() {
        Ok(())
    } else {
        Err(disagreements.join("\n").into())
    }
}

/// The golden file for `posteriors`.
pub fn golden_json(seed: u64, posteriors: &[Vec<f32>]) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"posteriors\": [\n");
    for (i, row) in posteriors.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
        let sep = if i + 1 == posteriors.len() { "" } else { "," };
        let _ = writeln!(out, "  [{}]{sep}", cells.join(", "));
    }
    out.push_str("]}\n");
    out
}

/// Reads a golden file back.
pub fn read_golden(path: &str) -> Res<Vec<Vec<f32>>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_golden(&text)
}

fn parse_golden(text: &str) -> Res<Vec<Vec<f32>>> {
    let doc = parse(text)?;
    let rows = doc
        .get("posteriors")
        .and_then(Value::as_array)
        .ok_or("golden file has no posteriors")?;
    Ok(rows
        .iter()
        .map(|row| {
            row.as_array()
                .unwrap_or_default()
                .iter()
                .map(|v| v.as_f64().unwrap_or(f64::NAN) as f32)
                .collect()
        })
        .collect())
}

const WHY: [&str; 3] = [
    "4 cabins x 10 short durable sessions at paper scale, 4800 labels: models and kernels do >=80% \
     of a tick, so GEMM/conv and engine work shows here",
    "2 cabins resumed from a 15-minute WAL, 400 ticks, 1600 labels: the O(history) read side \
     does >=60% of a tick, so incremental alignment shows here and a GEMM gain barely",
    "2000 vehicles x 20 sessions into 2 shards, 1.8M readings, 1 vehicle in 20 labelled: wire, \
     controller write side, WAL, TSDB and shards do >=80%, the engine <=10%",
];

fn metric_json(spec: &Spec, bounded: bool) -> String {
    let bound = if bounded {
        format!(", \"bound\": {}", spec.bound)
    } else {
        String::new()
    };
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        spec.name,
        spec.unit,
        spec.better.as_str()
    )
}

/// `BENCHMARK.json`, rendered from the metric and workload lists.
pub fn benchmark_json() -> String {
    let list = |specs: &[Spec], bounded: bool| {
        specs
            .iter()
            .map(|s| metric_json(s, bounded))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = Workload::NAMES
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {NOMINAL_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&END_TO_END, true),
        list(&PER_LAYER, false),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn golden_file_round_trips() {
        let rows = vec![vec![0.125f32, 0.875], vec![1e-7, 0.333_333_34]];
        assert_eq!(parse_golden(&golden_json(1, &rows)).unwrap(), rows);
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let doc = parse(&benchmark_json()).unwrap();
        let Value::Object(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for w in doc.get("workloads").and_then(Value::as_array).unwrap() {
            assert!(w.get("why").and_then(Value::as_str).unwrap().len() <= 200);
        }
    }
}
