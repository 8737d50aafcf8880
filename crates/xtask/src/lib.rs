//! # xtask — workspace maintenance tasks
//!
//! Home of **darlint**, the in-repo invariant lint pass (`cargo run -p
//! xtask -- lint`). darlint is a self-contained, std-only static
//! analyzer over `crates/*/src` that machine-checks the project
//! invariants documented in DESIGN.md §11 and §15. It is deny-by-default:
//! any finding fails the run. An exception is either a path grant in a
//! rule's allowlist ([`rules`]) or a `// darlint: cold — <reason>`
//! marker; there is no per-line suppression and no baseline of tolerated
//! findings.
//!
//! * **deterministic-time** — `Instant::now` / `SystemTime::now` only in
//!   the runtime allowlist (`bench` and this driver's pass timer).
//! * **scoped-threads-only** — `thread::spawn` is forbidden everywhere;
//!   concurrency goes through `std::thread::scope`.
//! * **crate-hygiene** — every crate root carries
//!   `#![deny(unsafe_code)]`, `#![deny(missing_docs)]`, and
//!   `#![warn(rust_2018_idioms)]`.
//! * **hot-alloc** / **hot-propagate** — the reachability pass
//!   ([`callgraph`]) walks the workspace call graph from every hot root
//!   (`// darlint: hot` markers and the `*_into` entries in
//!   `tensor`/`nn`) and forbids the allocating constructs
//!   `Tensor::zeros`, `vec!`, `.collect()` (turbofish included), and
//!   `.to_vec()` in every function it reaches; hot code checks buffers
//!   out of a `darnet_tensor::Workspace` or writes through an `_into`
//!   kernel. A finding inside a marked function is `hot-alloc`, one in
//!   an unmarked helper it reaches is `hot-propagate`.
//!   `// darlint: cold — <reason>` prunes a function out of the walk.
//! * **nondet-order** — `HashMap`/`HashSet` (declaration or iteration)
//!   are banned on the order-sensitive paths (digests, fingerprints,
//!   WAL replay, wire encoding, reports) where nondeterministic
//!   iteration order would break bitwise reproducibility.
//! * **durable-io** — `std::fs` / `File::open` / `File::create` /
//!   `OpenOptions::new` only in the durable-I/O owners (`collect::wal`,
//!   `core::model_io`, `core::experiment`, `bench`, and this driver's
//!   workspace walk); everything else persists through a `WalStorage`
//!   so crash recovery stays testable against `MemStorage`.
//! * **rng-confined** — seeded-PRNG construction and use (`SplitMix64`)
//!   only in the randomness owners (sim, loadgen, fault injection,
//!   weight init, training-time randomness); everything else receives
//!   randomness as data, keeping the storage/replay/digest/wire layer
//!   RNG-free by construction.
//! * **replay-pure** — functions transitively reachable from a
//!   `// darlint: pure-root` marker (WAL replay, `state_digest`,
//!   `canonical_fingerprint*`, `metrics::compare`) must be free of
//!   Time/Io/Rng/ThreadSpawn/HashOrder effects; diagnostics carry the
//!   full root-to-site call chain. It is the same reachability pass
//!   under a second constraint row, over the seed table in [`effects`].
//! * **marker** — a `// darlint:` comment that is not `hot`,
//!   `cold — <reason>` or `pure-root` (a `cold` without its reason, a
//!   typo, a retired `allow(<rule>)` hatch) marks nothing and is itself
//!   a finding.
//!
//! The pass operates on a real token stream ([`lex`]) and parsed item
//! structure ([`parse`]): comments, strings, and char literals can never
//! match, call chains split across lines still match, and `cfg(test)`
//! regions (including `#[cfg(not(test))]`, which is *not* test-gated)
//! resolve correctly. Panics are clippy's: the escalated pass in
//! `scripts/tier1.sh` denies `unwrap_used`/`expect_used`/`panic`/
//! `unreachable`/`todo`/`unimplemented` with type information. darlint
//! covers what clippy does not model (per-path allowlists, attribute
//! hygiene, transitive hot-path and replay-purity constraints).

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

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
use rules::{check_crate_root, lint_scanned};
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
/// pairs: per-file rules, crate-root hygiene, and the cross-file
/// reachability pass. This is the pure core of [`run_lint`];
/// tests feed it synthetic multi-file inputs directly.
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
        report.violations.extend(lint_scanned(path, sc).violations);
        report.files_scanned += 1;
        if is_crate_root(path, files) {
            // Hygiene is cheap; re-using the raw source keeps the
            // token-window check simple.
            if let Some((_, source)) = files.iter().find(|(p, _)| p == path) {
                report
                    .violations
                    .extend(check_crate_root(path, source).violations);
            }
        }
    }
    timer.lap("file-rules");

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

/// Is `path` the crate root for its crate: `src/lib.rs`, or `src/main.rs`
/// when the crate has no `lib.rs`?
fn is_crate_root(path: &str, files: &[(String, String)]) -> bool {
    if path.ends_with("/src/lib.rs") {
        return true;
    }
    if let Some(prefix) = path.strip_suffix("/src/main.rs") {
        let lib = format!("{prefix}/src/lib.rs");
        return !files.iter().any(|(p, _)| *p == lib);
    }
    false
}

/// Locates the workspace root: `CARGO_MANIFEST_DIR/../..` when invoked via
/// cargo, else walks up from the current directory looking for a
/// `Cargo.toml` with a `[workspace]` table.
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
