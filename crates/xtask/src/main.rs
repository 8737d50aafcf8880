//! CLI entry point for workspace maintenance tasks.
//!
//! ```text
//! cargo run -p xtask -- lint [--root PATH]
//! ```
//!
//! `lint` runs the darlint invariant pass (see the crate docs and
//! DESIGN.md §11/§15) and prints its report to stderr. Exit code 0 means
//! the tree is clean, 1 that it has at least one violation, 2 an
//! operational failure (unreadable workspace, bad arguments).

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{find_root, run_lint};

const USAGE: &str = "\
xtask — workspace maintenance tasks

USAGE:
    cargo run -p xtask -- lint [--root PATH]

COMMANDS:
    lint     run the darlint invariant pass over crates/*/src
             (hot-alloc, hot-propagate, replay-pure, marker);
             exits 1 on any violation

OPTIONS:
    --root PATH           workspace root (default: auto-detected)
";

/// Parses `lint [--root PATH]` into the root override, if any.
fn parse_args(mut argv: std::env::Args) -> Result<Option<PathBuf>, String> {
    let _ = argv.next(); // program name
    match argv.next().as_deref() {
        Some("lint") => {}
        Some("help") | Some("--help") | Some("-h") | None => return Err(USAGE.to_owned()),
        Some(other) => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
    let mut root = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--root" => {
                let path = argv.next().ok_or("--root requires a path")?;
                root = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args(std::env::args()) {
        Ok(root) => root,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let report = root
        .map(Ok)
        .unwrap_or_else(find_root)
        .and_then(|root| run_lint(&root));
    match report {
        Ok(report) => {
            eprint!("{}", report.render_human());
            ExitCode::from(u8::from(!report.is_clean()))
        }
        Err(msg) => {
            eprintln!("xtask: {msg}");
            ExitCode::from(2)
        }
    }
}
