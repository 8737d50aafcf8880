//! # xtask — workspace maintenance tasks
//!
//! Home of **darlint**, the in-repo invariant lint pass (`cargo run -p
//! xtask -- lint`). darlint is a self-contained, std-only static
//! analyzer over `crates/*/src` that machine-checks the project
//! invariants documented in DESIGN.md §11 and §15 that a compiler cannot
//! check. It is deny-by-default: any finding fails the run. There is no
//! exception marker, no per-line suppression and no baseline of
//! tolerated findings.
//!
//! * **replay-pure** — functions transitively reachable from a
//!   `// darlint: pure-root` marker (WAL replay, `state_digest`,
//!   `canonical_fingerprint*`, `metrics::compare`) must be free of
//!   Time/Io/Rng/ThreadSpawn effects (`Io` inside the durable-I/O owners
//!   is the replay input and passes); diagnostics carry the full
//!   root-to-site call chain. The reachability pass ([`callgraph`]) walks
//!   the workspace call graph over the seed table in [`effects`].
//! * **marker** — a `// darlint:` comment that is not `pure-root` (a
//!   typo, a retired `hot`/`cold` marker or `allow(<rule>)` hatch) marks
//!   nothing and is itself a finding.
//!
//! The zero-alloc contract of the warm label path is not darlint's: the
//! counting allocator in `crates/bench/tests/zero_alloc.rs` holds every
//! entry point to 0 allocations at run time (DESIGN.md §12.4).
//!
//! The pass operates on a real token stream ([`lex`]) and parsed item
//! structure ([`parse`]): comments, strings, and char literals can never
//! match, call chains split across lines still match, and `cfg(test)`
//! regions (including `#[cfg(not(test))]`, which is *not* test-gated)
//! resolve correctly.
//!
//! Everything a name ban can say is clippy's, which sees resolved paths
//! and types. `clippy.toml` bans wall-clock reads, `thread::spawn`,
//! `std::fs`, the `SplitMix64` surface and `HashMap`/`HashSet`; an owner
//! sanctioned to use one grants itself with a module-level
//! `#[expect(clippy::disallowed_methods, reason = "…")]`, which fails
//! `-D warnings` once the grant is no longer used. The escalated pass in
//! `scripts/tier1.sh` denies `unwrap_used`/`expect_used`/`panic`/
//! `unreachable`/`todo`/`unimplemented`. The crate-root lints
//! (`unsafe_code`, `missing_docs`, `rust_2018_idioms`) are Cargo's:
//! `[workspace.lints.rust]` in the root `Cargo.toml`.

pub mod callgraph;
pub mod effects;
pub mod lex;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

use report::LintReport;
use rules::lint_markers;
use scan::{scan, ScannedFile};

/// Runs the full darlint pass over the workspace rooted at `root`
/// (the directory containing the top-level `Cargo.toml` and `crates/`).
///
/// # Errors
///
/// Returns a message when the workspace layout cannot be read.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    Ok(lint_workspace(&workspace_sources(root)?))
}

/// Reads every `crates/*/src/**/*.rs` file under `root` in sorted order
/// as `(workspace-relative path, source)` pairs.
#[expect(
    clippy::disallowed_methods,
    reason = "darlint's workspace walk reads the sources it lints"
)]
fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files: Vec<(String, String)> = Vec::new();
    for crate_dir in &crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs_files(&src, &mut paths)?;
        paths.sort();
        for file in paths {
            let rel = relative(root, &file);
            let source = fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            files.push((rel, source));
        }
    }
    Ok(files)
}

/// Lints a workspace presented as `(workspace-relative path, source)`
/// pairs: the marker rule and the cross-file reachability pass. This is
/// the pure core of [`run_lint`]; tests feed it synthetic multi-file
/// inputs directly.
pub fn lint_workspace(files: &[(String, String)]) -> LintReport {
    // Wall-clock each pass so analyzer cost regressions are visible in
    // the report's last line.
    let mut timer = PassTimer::start();
    let mut report = LintReport::default();
    let scanned: Vec<(String, ScannedFile)> = files
        .iter()
        .map(|(path, source)| (path.clone(), scan(source)))
        .collect();
    timer.lap("scan");

    for (path, sc) in &scanned {
        report.violations.extend(lint_markers(path, sc).violations);
        report.files_scanned += 1;
    }
    timer.lap("markers");

    let mut reached = rules::FileLint::default();
    callgraph::analyze(&scanned, |pass| timer.lap(pass), &mut reached);
    report.violations.extend(reached.violations);

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.timings = timer.laps;
    report
}

/// Accumulates named per-pass wall-clock laps (microseconds).
struct PassTimer {
    laps: Vec<(&'static str, u128)>,
    last: std::time::Instant,
}

#[expect(
    clippy::disallowed_methods,
    reason = "darlint wall-clocks its own passes"
)]
impl PassTimer {
    fn start() -> PassTimer {
        PassTimer {
            laps: Vec::new(),
            last: std::time::Instant::now(),
        }
    }

    fn lap(&mut self, name: &'static str) {
        let now = std::time::Instant::now();
        self.laps
            .push((name, now.duration_since(self.last).as_micros()));
        self.last = now;
    }
}

/// Locates the workspace root: `CARGO_MANIFEST_DIR/../..` when invoked via
/// cargo, else walks up from the current directory looking for a
/// `Cargo.toml` with a `[workspace]` table.
#[expect(
    clippy::disallowed_methods,
    reason = "darlint's workspace walk reads the sources it lints"
)]
pub fn find_root() -> Result<PathBuf, String> {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("Cargo.toml").is_file() {
                return Ok(root.to_owned());
            }
        }
    }
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest).unwrap_or_default();
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".into());
        }
    }
}

/// Recursively collects `.rs` files under `dir`.
#[expect(
    clippy::disallowed_methods,
    reason = "darlint's workspace walk reads the sources it lints"
)]
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))? {
        let path = entry
            .map_err(|e| format!("cannot read entry in {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators.
fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
