//! CLI entry point for workspace maintenance tasks.
//!
//! ```text
//! cargo run -p xtask -- lint [--check] [--json] [--out PATH] [--root PATH]
//!                            [--ratchet PATH] [--write-ratchet PATH]
//! ```
//!
//! `lint` runs the darlint invariant pass (see the crate docs and
//! DESIGN.md §11/§15/§16). Human diagnostics go to stderr; `--json`
//! emits the machine report on stdout (or to `--out PATH`). Without
//! `--check` the command always exits 0 (report-only); with `--check`
//! any violation exits 1. `--ratchet PATH` additionally compares the run
//! against a committed baseline and (under `--check`) fails on any
//! per-rule or per-hatch count above it; `--write-ratchet PATH`
//! re-baselines.
//!
//! Exit code 2 signals an operational failure (unreadable workspace, bad
//! flags, unreadable baseline).

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::ratchet::{compare, Ratchet};
use xtask::{find_root, run_lint};

const USAGE: &str = "\
xtask — workspace maintenance tasks

USAGE:
    cargo run -p xtask -- lint [--check] [--json] [--out PATH] [--root PATH]
                               [--ratchet PATH] [--write-ratchet PATH]

COMMANDS:
    lint     run the darlint invariant pass over crates/*/src
             (deterministic-time, scoped-threads-only, crate-hygiene,
             hot-alloc, hot-propagate, durable-io, nondet-order,
             rng-confined, replay-pure, bare-allow)

OPTIONS:
    --check               exit nonzero when any violation is found, or
                          when a --ratchet count regresses
    --json                emit the JSON report on stdout
    --out PATH            write the JSON report to PATH (implies --json)
    --root PATH           workspace root (default: auto-detected)
    --ratchet PATH        compare against the committed baseline at PATH
    --write-ratchet PATH  write the current counts to PATH as the new
                          baseline
";

struct Args {
    check: bool,
    json: bool,
    out: Option<PathBuf>,
    root: Option<PathBuf>,
    ratchet: Option<PathBuf>,
    write_ratchet: Option<PathBuf>,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _ = argv.next(); // program name
    match argv.next().as_deref() {
        Some("lint") => {}
        Some("help") | Some("--help") | Some("-h") | None => return Err(USAGE.to_owned()),
        Some(other) => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
    let mut args = Args {
        check: false,
        json: false,
        out: None,
        root: None,
        ratchet: None,
        write_ratchet: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--check" => args.check = true,
            "--json" => args.json = true,
            "--out" => {
                let path = argv.next().ok_or("--out requires a path")?;
                args.out = Some(PathBuf::from(path));
                args.json = true;
            }
            "--root" => {
                let path = argv.next().ok_or("--root requires a path")?;
                args.root = Some(PathBuf::from(path));
            }
            "--ratchet" => {
                let path = argv.next().ok_or("--ratchet requires a path")?;
                args.ratchet = Some(PathBuf::from(path));
            }
            "--write-ratchet" => {
                let path = argv.next().ok_or("--write-ratchet requires a path")?;
                args.write_ratchet = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs the baseline comparison; returns whether any count regressed.
fn check_ratchet(path: &PathBuf, current: &Ratchet) -> Result<bool, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read ratchet baseline {}: {e}", path.display()))?;
    let baseline = Ratchet::parse(&text)
        .map_err(|e| format!("bad ratchet baseline {}: {e}", path.display()))?;
    let delta = compare(&baseline, current);
    for r in &delta.regressions {
        eprintln!("darlint: ratchet regression: {r}");
    }
    for i in &delta.improvements {
        eprintln!("darlint: ratchet improvement: {i}");
    }
    if !delta.regressions.is_empty() {
        eprintln!(
            "darlint: {} count(s) above the committed baseline {}.\n\
             darlint: pay the debt down (fix the violation or remove the allow), or — \n\
             darlint: if the new debt is justified — re-baseline with:\n\
             darlint:     cargo run -p xtask -- lint --write-ratchet {}",
            delta.regressions.len(),
            path.display(),
            path.display()
        );
        return Ok(true);
    }
    if delta.improvements.is_empty() {
        eprintln!(
            "darlint: ratchet holds (no change against {})",
            path.display()
        );
    } else {
        eprintln!(
            "darlint: ratchet holds; {} count(s) below baseline — bank the \
             improvement with --write-ratchet {}",
            delta.improvements.len(),
            path.display()
        );
    }
    Ok(false)
}

/// Writes `json` to `--out PATH` (creating parent directories) or stdout.
fn emit_json(out: &Option<PathBuf>, json: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::write(path, json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("darlint: JSON report written to {}", path.display());
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn run_lint_command(args: &Args, root: &std::path::Path) -> ExitCode {
    let report = match run_lint(root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("xtask: {msg}");
            return ExitCode::from(2);
        }
    };
    eprint!("{}", report.render_human());
    if args.json {
        if let Err(msg) = emit_json(&args.out, &report.render_json()) {
            eprintln!("xtask: {msg}");
            return ExitCode::from(2);
        }
    }
    let current = Ratchet::from_report(&report);
    let mut ratchet_regressed = false;
    if let Some(path) = &args.ratchet {
        match check_ratchet(path, &current) {
            Ok(regressed) => ratchet_regressed = regressed,
            Err(msg) => {
                eprintln!("xtask: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &args.write_ratchet {
        if let Err(e) = std::fs::write(path, current.render()) {
            eprintln!("xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("darlint: ratchet baseline written to {}", path.display());
    }
    if args.check && (!report.is_clean() || ratchet_regressed) {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.clone().map(Ok).unwrap_or_else(find_root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("xtask: {msg}");
            return ExitCode::from(2);
        }
    };
    run_lint_command(&args, &root)
}
