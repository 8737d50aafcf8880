//! The darlint rule set and its application to scanned files.
//!
//! Policy lives here as data; DESIGN.md §11 and §15 are the prose
//! counterpart. Every rule matches the *token stream* produced by
//! [`crate::scan`], so comments, strings, and char literals can never
//! trigger a diagnostic, and matching is layout-insensitive: a call
//! split across lines or spelled with a turbofish
//! (`.collect::<Vec<_>>()`) matches the same as its compact form.

use std::collections::BTreeSet;

use crate::effects::{seed_pats, Effect};
use crate::lex::{TokKind, Token};
use crate::scan::{parse_marker, scan, Marker, ScannedFile};

/// Rule identifiers (stable: diagnostics print them as `darlint[<id>]`
/// and DESIGN.md §11 is keyed by them).
pub mod rule {
    /// `Instant::now` / `SystemTime::now` outside the runtime allowlist.
    pub const TIME: &str = "deterministic-time";
    /// `thread::spawn` anywhere: concurrency goes through
    /// `std::thread::scope`.
    pub const THREAD: &str = "scoped-threads-only";
    /// Crate roots missing the required inner attributes.
    pub const HYGIENE: &str = "crate-hygiene";
    /// A `// darlint:` comment that is none of the three markers (`hot`,
    /// `cold — <reason>`, `pure-root`): a `cold` without its reason, a
    /// typo, a retired `allow(<rule>)` hatch.
    pub const MARKER: &str = "marker";
    /// Allocating constructs inside a function annotated `// darlint: hot`
    /// (the zero-alloc inference path).
    pub const HOT_ALLOC: &str = "hot-alloc";
    /// Direct filesystem access (`std::fs`, `File::open`, ...) outside the
    /// sanctioned durable-I/O owners.
    pub const DURABLE_IO: &str = "durable-io";
    /// `HashMap`/`HashSet` (declaration or iteration) in an
    /// order-sensitive path: digests, fingerprints, replay, reports.
    pub const ORDER: &str = "nondet-order";
    /// Allocation in a function *transitively reachable* from a hot root
    /// via the call graph.
    pub const HOT_PROPAGATE: &str = "hot-propagate";
    /// A nondeterminism effect (Time/Io/Rng/ThreadSpawn/HashOrder) on a
    /// path reachable from a `// darlint: pure-root` function: WAL
    /// replay, `state_digest`, `canonical_fingerprint*`, and
    /// `metrics::compare` must stay bitwise-reproducible.
    pub const REPLAY_PURE: &str = "replay-pure";
    /// Seeded PRNG construction or use outside the randomness owners
    /// (sim / loadgen / fault injection / initialization).
    pub const RNG_CONFINED: &str = "rng-confined";
}

/// Files (workspace-relative, `/`-separated) or path prefixes where
/// wall-clock reads are legitimate. Sessions, live mode and the WAL
/// receive time as data (injected timestamps, arrival stamps) and the
/// fleet simulation is event-driven virtual time, so no library crate is
/// here: whoever wants a run timed wraps it in the bench crate.
pub const TIME_ALLOWLIST: &[&str] = &[
    "crates/bench/",
    // The lint driver wall-clocks its own passes so analyzer cost
    // regressions are visible in the report's last line.
    "crates/xtask/src/lib.rs",
];

/// Files or path prefixes sanctioned to touch the filesystem: the WAL's
/// directory storage backend, model/experiment persistence, the bench
/// harness, and the xtask driver that walks the workspace.
/// Everything else must route durable state through a `WalStorage` (so
/// tests can substitute `MemStorage` and crash-recovery stays simulable).
pub const DURABLE_IO_ALLOWLIST: &[&str] = &[
    "crates/collect/src/wal.rs",
    "crates/core/src/model_io.rs",
    "crates/core/src/experiment.rs",
    "crates/bench/",
    "crates/xtask/src/lib.rs",
];

/// The randomness owners: files or path prefixes where seeded-PRNG
/// construction and use (`SplitMix64`) is legitimate. Everything else
/// must receive randomness as data (a threaded-through `&mut
/// SplitMix64` or a pre-drawn value) from one of these owners, so the
/// storage/replay/digest/wire layer and the inference path stay
/// RNG-free by construction — the `rng-confined` rule enforces the
/// boundary lexically and the `replay-pure` rule catches transitive
/// leaks onto the contract paths.
pub const RNG_ALLOWLIST: &[&str] = &[
    // The PRNG itself plus the weight-initialization kernels.
    "crates/tensor/src/init.rs",
    // Synthetic driving-data generation is randomness by design.
    "crates/sim/",
    // Training-time randomness: dropout masks, epoch shuffles.
    "crates/nn/src/dropout.rs",
    "crates/nn/src/svm.rs",
    "crates/core/src/models/",
    // Data splits, label-noise fault injection, DP shuffling, and
    // seeded experiment/campaign setup.
    "crates/core/src/dataset.rs",
    "crates/core/src/privacy.rs",
    "crates/core/src/experiment.rs",
    // The collection-side simulation and fault-injection layer: sensor
    // jitter, lossy links, clock drift, session transports, fleet load.
    "crates/collect/src/agent.rs",
    "crates/collect/src/network.rs",
    "crates/collect/src/clock.rs",
    "crates/collect/src/runtime.rs",
    "crates/collect/src/loadgen.rs",
    // Seeded benchmark workloads.
    "crates/bench/",
];

/// Order-sensitive paths: files whose outputs must be bitwise
/// reproducible (digests, fingerprints, WAL replay, wire encoding,
/// deterministic reports). Unlike the allowlists above, the
/// `nondet-order` rule applies *on* these paths: hash-ordered
/// containers are banned there outright because their iteration order
/// varies run-to-run (`RandomState`) and silently breaks digest
/// equality. Everywhere else `HashMap` is fine.
pub const ORDER_PATHS: &[&str] = &[
    "crates/collect/src/tsdb.rs",
    "crates/collect/src/controller.rs",
    "crates/collect/src/shard.rs",
    "crates/collect/src/wal.rs",
    "crates/collect/src/wire.rs",
    "crates/collect/src/loadgen.rs",
    "crates/core/src/model_io.rs",
    "crates/core/src/experiment.rs",
    "crates/xtask/src/report.rs",
];

/// Container types banned by [`rule::ORDER`] on order-sensitive paths.
pub const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Iteration methods that surface a hash container's nondeterministic
/// order when called on a binding known to be hash-typed.
const ORDER_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Inner attributes every crate root must carry (display form; matching
/// is token-based, see [`check_crate_root`]).
pub const REQUIRED_ROOT_ATTRS: &[&str] = &[
    "#![deny(unsafe_code)]",
    "#![deny(missing_docs)]",
    "#![warn(rust_2018_idioms)]",
];

/// `(level, name)` pairs for the required root attributes.
const ROOT_ATTRS: &[(&str, &str, &str)] = &[
    ("deny", "unsafe_code", "#![deny(unsafe_code)]"),
    ("deny", "missing_docs", "#![deny(missing_docs)]"),
    ("warn", "rust_2018_idioms", "#![warn(rust_2018_idioms)]"),
];

/// A token pattern one rule forbids.
#[derive(Clone, Copy)]
pub(crate) struct Pat {
    pub(crate) kind: PatKind,
    /// Canonical display form for diagnostics (e.g. `.collect()`).
    pub(crate) display: &'static str,
}

/// The shapes a forbidden construct can take.
#[derive(Clone, Copy)]
pub(crate) enum PatKind {
    /// `.name(...)` — a method call, turbofish-tolerant
    /// (`.collect::<Vec<_>>()` matches `collect`). With `empty_args`,
    /// the argument list must be `()`.
    Method {
        name: &'static str,
        empty_args: bool,
    },
    /// `a::b` — a `::`-joined path suffix (`std::time::Instant::now`
    /// matches `Instant::now`).
    Path(&'static [&'static str]),
    /// `name!` — a macro invocation.
    MacroCall(&'static str),
}

/// Constructs forbidden by [`rule::TIME`].
pub(crate) const TIME_PATS: &[Pat] = &[
    Pat {
        kind: PatKind::Path(&["Instant", "now"]),
        display: "Instant::now",
    },
    Pat {
        kind: PatKind::Path(&["SystemTime", "now"]),
        display: "SystemTime::now",
    },
];

/// Constructs forbidden by [`rule::THREAD`].
pub(crate) const THREAD_PATS: &[Pat] = &[Pat {
    kind: PatKind::Path(&["thread", "spawn"]),
    display: "thread::spawn",
}];

/// Constructs that construct or advance the seeded PRNG
/// ([`rule::RNG_CONFINED`] outside [`RNG_ALLOWLIST`]; `Rng` effect
/// seeds everywhere). The method list mirrors `SplitMix64`'s public
/// API in `crates/tensor/src/init.rs`.
pub(crate) const RNG_PATS: &[Pat] = &[
    Pat {
        kind: PatKind::Path(&["SplitMix64", "new"]),
        display: "SplitMix64::new",
    },
    Pat {
        kind: PatKind::Method {
            name: "next_u64",
            empty_args: true,
        },
        display: ".next_u64()",
    },
    Pat {
        kind: PatKind::Method {
            name: "next_f32",
            empty_args: true,
        },
        display: ".next_f32()",
    },
    Pat {
        kind: PatKind::Method {
            name: "next_f64",
            empty_args: true,
        },
        display: ".next_f64()",
    },
    Pat {
        kind: PatKind::Method {
            name: "next_usize",
            empty_args: false,
        },
        display: ".next_usize(",
    },
    Pat {
        kind: PatKind::Method {
            name: "uniform",
            empty_args: false,
        },
        display: ".uniform(",
    },
    Pat {
        kind: PatKind::Method {
            name: "normal",
            empty_args: true,
        },
        display: ".normal()",
    },
    Pat {
        kind: PatKind::Method {
            name: "shuffle",
            empty_args: false,
        },
        display: ".shuffle(",
    },
    Pat {
        kind: PatKind::Method {
            name: "fork",
            empty_args: true,
        },
        display: ".fork()",
    },
];

/// Constructs forbidden by [`rule::HOT_ALLOC`] (and flagged by
/// [`rule::HOT_PROPAGATE`]) on the hot path. Each one
/// heap-allocates on the success path of the steady state; hot code
/// must go through workspace checkouts and the `_into` kernels instead.
/// (Error-path `format!`/`.into()` construction is deliberately not
/// banned — errors are the cold path by definition.)
pub(crate) const ALLOC_PATS: &[Pat] = &[
    Pat {
        kind: PatKind::Path(&["Tensor", "zeros"]),
        display: "Tensor::zeros",
    },
    Pat {
        kind: PatKind::MacroCall("vec"),
        display: "vec!",
    },
    Pat {
        kind: PatKind::Method {
            name: "collect",
            empty_args: true,
        },
        display: ".collect()",
    },
    Pat {
        kind: PatKind::Method {
            name: "to_vec",
            empty_args: true,
        },
        display: ".to_vec()",
    },
];

/// Constructs forbidden by [`rule::DURABLE_IO`].
pub(crate) const IO_PATS: &[Pat] = &[
    Pat {
        kind: PatKind::Path(&["std", "fs"]),
        display: "std::fs",
    },
    Pat {
        kind: PatKind::Path(&["File", "open"]),
        display: "File::open",
    },
    Pat {
        kind: PatKind::Path(&["File", "create"]),
        display: "File::create",
    },
    Pat {
        kind: PatKind::Path(&["OpenOptions", "new"]),
        display: "OpenOptions::new",
    },
];

/// One diagnostic produced by the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of the [`rule`] constants).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Per-file lint outcome.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Diagnostics for this file.
    pub violations: Vec<Violation>,
}

/// Does `path` match the allowlist (exact file or directory prefix)?
pub(crate) fn allowlisted(path: &str, allowlist: &[&str]) -> bool {
    allowlist
        .iter()
        .any(|a| path == *a || (a.ends_with('/') && path.starts_with(a)))
}

/// Skips a `<...>` group starting at `start` (which must be `<`),
/// tolerant of `->`/`=>` arrows inside; returns the index past `>`.
pub(crate) fn skip_angles(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>')
            && !(i > 0 && (tokens[i - 1].is_punct('-') || tokens[i - 1].is_punct('=')))
        {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Tries to match `pat` at token index `i`; returns the 1-based line of
/// the match on success.
pub(crate) fn match_pat(tokens: &[Token], i: usize, pat: &Pat) -> Option<usize> {
    match pat.kind {
        PatKind::Method { name, empty_args } => {
            if !tokens[i].is_punct('.') || !tokens.get(i + 1).is_some_and(|t| t.is_ident(name)) {
                return None;
            }
            let mut j = i + 2;
            // Optional turbofish: `.collect::<Vec<_>>()`.
            if tokens.get(j).is_some_and(|t| t.is_punct(':'))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
            {
                j = skip_angles(tokens, j + 2);
            }
            if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                return None;
            }
            if empty_args && !tokens.get(j + 1).is_some_and(|t| t.is_punct(')')) {
                return None;
            }
            Some(tokens[i].line)
        }
        PatKind::Path(segs) => {
            if !tokens[i].is_ident(segs[0]) {
                return None;
            }
            let mut j = i + 1;
            for seg in &segs[1..] {
                if !(tokens.get(j).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 2).is_some_and(|t| t.is_ident(seg)))
                {
                    return None;
                }
                j += 3;
            }
            Some(tokens[i].line)
        }
        PatKind::MacroCall(name) => (tokens[i].is_ident(name)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')))
        .then_some(tokens[i].line),
    }
}

/// The per-file rules: each bans the lexical seeds of one effect
/// outside that effect's sanctioned owners. `scoped-threads-only` has no
/// owners — every concurrent path uses `std::thread::scope`.
const SCOPED_RULES: &[(&str, Effect, &[&str], &str)] = &[
    (
        rule::TIME,
        Effect::Time,
        TIME_ALLOWLIST,
        "wall-clock read outside the runtime allowlist; inject time \
         through the clock abstraction",
    ),
    (
        rule::THREAD,
        Effect::ThreadSpawn,
        &[],
        "raw thread::spawn; use std::thread::scope under the \
         Parallelism policy",
    ),
    (
        rule::DURABLE_IO,
        Effect::Io,
        DURABLE_IO_ALLOWLIST,
        "direct filesystem access outside the durable-I/O owners; \
         route persistence through a WalStorage backend",
    ),
    (
        rule::RNG_CONFINED,
        Effect::Rng,
        RNG_ALLOWLIST,
        "seeded PRNG construction/use outside the randomness owners; \
         thread a `SplitMix64` in from sim/loadgen/fault-injection/init",
    ),
];

/// Lints one file as a workspace of its own: the per-file rules plus the
/// reachability pass over the file's own call graph. `path` must be
/// workspace-relative with `/` separators (it selects which rules
/// apply).
pub fn lint_file(path: &str, source: &str) -> FileLint {
    let files = [(path.to_owned(), scan(source))];
    let mut out = lint_scanned(path, &files[0].1);
    crate::callgraph::analyze(&files, |_| {}, &mut out);
    out
}

/// Applies the per-file rules to an already-scanned file (the workspace
/// pass scans once and shares the result with the call-graph analysis).
pub fn lint_scanned(path: &str, scanned: &ScannedFile) -> FileLint {
    let mut out = FileLint::default();

    // There is no per-line escape hatch: an exception is a path grant in
    // one of the allowlists above or a `cold — <reason>` marker, so any
    // other comment addressed to darlint is a finding, wherever it sits.
    for c in &scanned.comments {
        if parse_marker(c) == Some(Marker::Malformed) {
            out.violations.push(Violation {
                rule: rule::MARKER,
                file: path.to_owned(),
                line: c.line,
                message: "not a darlint marker, so it marks nothing; darlint reads \
                          `// darlint: hot`, `// darlint: cold — <reason>` and \
                          `// darlint: pure-root`, each on its own line above a fn"
                    .to_owned(),
                snippet: snippet(&scanned.lines, c.line),
            });
        }
    }

    for &(rule_id, effect, owners, why) in SCOPED_RULES {
        if allowlisted(path, owners) {
            continue;
        }
        for i in 0..scanned.tokens.len() {
            for pat in seed_pats(effect) {
                let Some(line) = match_pat(&scanned.tokens, i, pat) else {
                    continue;
                };
                if is_test(scanned, line) {
                    continue;
                }
                out.violations.push(Violation {
                    rule: rule_id,
                    file: path.to_owned(),
                    line,
                    message: format!("`{}` — {why}", pat.display),
                    snippet: snippet(&scanned.lines, line),
                });
            }
        }
    }

    if allowlisted(path, ORDER_PATHS) {
        order_check(path, scanned, &mut out);
    }
    out
}

/// The `nondet-order` rule body: on order-sensitive paths, ban
/// hash-ordered containers at the type level and flag iteration sites
/// over bindings known to be hash-typed.
fn order_check(path: &str, scanned: &ScannedFile, out: &mut FileLint) {
    let tokens = &scanned.tokens;
    // One diagnostic per line is enough: a declaration or loop header
    // frequently matches both sub-checks.
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    let mut emit = |line: usize, message: String, out: &mut FileLint| {
        if is_test(scanned, line) || !reported.insert(line) {
            return;
        }
        out.violations.push(Violation {
            rule: rule::ORDER,
            file: path.to_owned(),
            line,
            message,
            snippet: snippet(&scanned.lines, line),
        });
    };

    // Sub-check 1: the types themselves are banned on these paths —
    // iteration order of std's RandomState-hashed containers varies
    // run-to-run, which is exactly what a digest/replay path cannot
    // absorb.
    for t in tokens {
        if t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()) {
            emit(
                t.line,
                format!(
                    "`{}` on an order-sensitive path; iteration order is \
                     nondeterministic — use BTreeMap/BTreeSet or sort \
                     before folding",
                    t.text
                ),
                out,
            );
        }
    }

    // Sub-check 2: iteration sites over bindings whose declared type or
    // initializer is hash-ordered. The detection is shared with the
    // `HashOrder` seeds of [`crate::effects`].
    let names = hash_bound_names(tokens);
    for site in hash_iter_sites(tokens, &names) {
        let message = match &site.method {
            Some(m) => format!(
                "iterating hash-ordered `{}` (`.{}()`); order is \
                 nondeterministic — sort first or use a BTree container",
                site.name, m
            ),
            None => format!(
                "`for … in` over hash-ordered `{}`; order is \
                 nondeterministic — sort first or use a BTree \
                 container",
                site.name
            ),
        };
        emit(site.line, message, out);
    }
}

/// A site that observes a hash container's nondeterministic iteration
/// order: either `name.iter()`-shaped (with `method`) or a `for … in`
/// header mentioning the binding (`method` is `None`).
pub(crate) struct HashIterSite {
    /// Token index of the binding mention.
    pub(crate) tok: usize,
    /// 1-based source line of the mention.
    pub(crate) line: usize,
    /// The hash-bound binding name.
    pub(crate) name: String,
    /// The iteration method, for `name.iter()`-shaped sites.
    pub(crate) method: Option<String>,
}

/// Finds every iteration site over the hash-bound `names`, in token
/// order. Shared by the `nondet-order` rule (which bans them on
/// order-sensitive paths) and the effect seed table (where each one
/// seeds the `HashOrder` effect).
pub(crate) fn hash_iter_sites(tokens: &[Token], names: &BTreeSet<String>) -> Vec<HashIterSite> {
    let mut sites = Vec::new();
    if names.is_empty() {
        return sites;
    }
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name.iter()` / `name.keys()` / ... on a known hash binding.
        if names.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Ident && ORDER_ITER_METHODS.contains(&n.text.as_str())
            })
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            sites.push(HashIterSite {
                tok: i,
                line: t.line,
                name: t.text.clone(),
                method: Some(tokens[i + 2].text.clone()),
            });
        }
        // `for pat in <expr mentioning a hash binding> {`.
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut depth = 0usize;
            // Find the `in` of this loop header.
            while j < tokens.len() && !(depth == 0 && tokens[j].is_ident("in")) {
                if tokens[j].is_punct('(') || tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(')') || tokens[j].is_punct(']') {
                    depth = depth.saturating_sub(1);
                }
                if tokens[j].is_punct('{') || j > i + 24 {
                    j = tokens.len(); // not a for-loop header we understand
                }
                j += 1;
            }
            let mut k = j;
            while k < tokens.len() && !tokens[k].is_punct('{') && k < j + 24 {
                if tokens[k].kind == TokKind::Ident && names.contains(&tokens[k].text) {
                    sites.push(HashIterSite {
                        tok: k,
                        line: tokens[k].line,
                        name: tokens[k].text.clone(),
                        method: None,
                    });
                }
                k += 1;
            }
        }
    }
    sites
}

/// Bindings (fields, params, lets) whose declared type or initializer
/// mentions a hash-ordered container: `series: RwLock<HashMap<..>>`,
/// `let mut seen = HashSet::new()`.
pub(crate) fn hash_bound_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name : <type tokens containing HashMap/HashSet>`
        if tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            let mut depth = 0usize;
            for u in tokens.iter().take(i + 40).skip(i + 2) {
                if u.is_punct('<') {
                    depth += 1;
                } else if u.is_punct('>') {
                    depth = depth.saturating_sub(1);
                } else if depth == 0
                    && (u.is_punct(',') || u.is_punct(';') || u.is_punct('=') || u.is_punct(')'))
                {
                    break;
                } else if u.kind == TokKind::Ident && HASH_TYPES.contains(&u.text.as_str()) {
                    names.insert(t.text.clone());
                    break;
                }
            }
        }
        // `let [mut] name = HashMap::...`
        if t.is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = tokens.get(j).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            if tokens.get(j + 1).is_some_and(|n| n.is_punct('='))
                && tokens
                    .get(j + 2)
                    .is_some_and(|n| HASH_TYPES.contains(&n.text.as_str()))
            {
                names.insert(name_tok.text.clone());
            }
        }
    }
    names
}

/// Is 1-based `line` inside a test-gated region?
pub(crate) fn is_test(scanned: &ScannedFile, line: usize) -> bool {
    scanned.is_test_line.get(line - 1).copied().unwrap_or(false)
}

/// Checks the crate-hygiene rule on a crate-root file.
pub fn check_crate_root(path: &str, source: &str) -> FileLint {
    let scanned = scan(source);
    let mut out = FileLint::default();
    for (level, name, display) in ROOT_ATTRS {
        if !has_inner_attr(&scanned.tokens, level, name) {
            out.violations.push(Violation {
                rule: rule::HYGIENE,
                file: path.to_owned(),
                line: 1,
                message: format!("crate root is missing the required inner attribute `{display}`"),
                snippet: String::new(),
            });
        }
    }
    out
}

/// Token-level search for `#![level(name)]`.
fn has_inner_attr(tokens: &[Token], level: &str, name: &str) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(level)
            && w[4].is_punct('(')
            && w[5].is_ident(name)
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// The offending line, trimmed, for diagnostics.
pub(crate) fn snippet(lines: &[String], line: usize) -> String {
    lines
        .get(line - 1)
        .map(|l| l.trim().to_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_patterns_match_whole_identifiers_and_arity() {
        // `.next_u64_below(n)` is not `.next_u64()`, and a `.normal()`
        // that takes arguments is some other method.
        let src = "fn f(r: &mut R) -> u64 { r.next_u64_below(3) + r.normal(1.0) }\n";
        assert!(lint_file("crates/nn/src/a.rs", src).violations.is_empty());
    }

    #[test]
    fn multiline_method_chain_still_fires() {
        let src = "fn f(r: &mut SplitMix64) -> u64 {\n    r\n        .next_u64()\n}\n";
        let lint = lint_file("crates/nn/src/a.rs", src);
        assert_eq!(lint.violations.len(), 1);
        assert_eq!(lint.violations[0].line, 3);
    }

    #[test]
    fn time_allowlist_honored() {
        let src = "fn t() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(lint_file("crates/core/src/a.rs", src).violations.len(), 1);
        assert_eq!(
            lint_file("crates/collect/src/loadgen.rs", src)
                .violations
                .len(),
            1
        );
        assert_eq!(
            lint_file("crates/bench/src/bin/b.rs", src).violations.len(),
            0
        );
    }

    #[test]
    fn every_grant_is_still_used_by_the_workspace() {
        // A grant that outlives its reason is a hole: a regression in the
        // granted file would pass. Every file (or directory-prefix) entry
        // of every allowlist must cover at least one file its rule would
        // fire on were the grant not there.
        let root = crate::find_root().expect("workspace root");
        let scanned: Vec<(String, ScannedFile)> = crate::workspace_sources(&root)
            .expect("workspace sources")
            .into_iter()
            .map(|(path, source)| (path, scan(&source)))
            .collect();
        let mut stale: Vec<String> = Vec::new();
        for &(rule_id, _, owners, _) in SCOPED_RULES {
            for &owner in owners {
                let used = scanned
                    .iter()
                    .filter(|(path, _)| allowlisted(path, &[owner]))
                    .any(|(_, sc)| {
                        let ungranted = lint_scanned("crates/ungranted/src/file.rs", sc);
                        ungranted.violations.iter().any(|v| v.rule == rule_id)
                    });
                if !used {
                    stale.push(format!("{rule_id}: {owner}"));
                }
            }
        }
        assert!(stale.is_empty(), "grants with no seed left: {stale:?}");
    }

    #[test]
    fn durable_io_allowlist_honored() {
        let src = "fn w(p: &std::path::Path) { let _ = std::fs::read(p); }\n";
        assert_eq!(
            lint_file("crates/collect/src/sensor.rs", src)
                .violations
                .len(),
            1
        );
        assert_eq!(
            lint_file("crates/collect/src/wal.rs", src).violations.len(),
            0
        );
        assert_eq!(
            lint_file("crates/bench/src/bin/b.rs", src).violations.len(),
            0
        );
        assert_eq!(
            lint_file("crates/xtask/src/lib.rs", src).violations.len(),
            0
        );
    }

    #[test]
    fn bare_cold_marker_rejected() {
        let src = "// darlint: cold\nfn helper() {}\n";
        let lint = lint_file("crates/tensor/src/a.rs", src);
        assert_eq!(lint.violations.len(), 1);
        assert_eq!(lint.violations[0].rule, rule::MARKER);
    }

    #[test]
    fn hot_alloc_fires_only_inside_hot_functions() {
        let src = "\
fn cold() -> Vec<u32> { (0..4).collect() }

// darlint: hot
fn hot(t: &Tensor, ws: &mut Workspace) -> Vec<f32> {
    let x = Tensor::zeros(&[2, 2]);
    let v = vec![0.0f32; 4];
    let c: Vec<f32> = v.iter().copied().collect();
    t.data().to_vec()
}

fn also_cold() -> Vec<u32> { vec![1, 2] }
";
        let lint = lint_file("crates/tensor/src/a.rs", src);
        let lines: Vec<usize> = lint
            .violations
            .iter()
            .filter(|v| v.rule == rule::HOT_ALLOC)
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, vec![5, 6, 7, 8], "zeros, vec!, collect, to_vec");
    }

    #[test]
    fn turbofish_collect_is_caught_in_hot_fn() {
        // The v1 substring matcher missed `.collect::<Vec<_>>()`.
        let src = "// darlint: hot\nfn hot(v: &[f32]) -> Vec<f32> {\n    v.iter().copied().collect::<Vec<_>>()\n}\n";
        let lint = lint_file("crates/tensor/src/a.rs", src);
        let rules: Vec<_> = lint.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&rule::HOT_ALLOC), "{:?}", lint.violations);
    }

    #[test]
    fn hot_marker_skips_fn_in_identifier_names() {
        // `fn` appearing inside an identifier between the marker and the
        // real function must not derail extent detection.
        let src = "\
// darlint: hot
pub fn hot_fn_like(defn_count: usize) -> usize {
    let v = vec![0u8; defn_count];
    v.len()
}
";
        let lint = lint_file("crates/tensor/src/a.rs", src);
        assert_eq!(lint.violations.len(), 1);
        assert_eq!(lint.violations[0].line, 3);
    }

    #[test]
    fn order_rule_bans_hash_types_on_order_paths_only() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n";
        let lint = lint_file("crates/collect/src/tsdb.rs", src);
        let lines: Vec<usize> = lint.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 2]);
        assert!(lint.violations.iter().all(|v| v.rule == rule::ORDER));
        // Off the order-sensitive paths, HashMap is fine.
        assert!(lint_file("crates/collect/src/agent.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn order_rule_flags_iteration_over_hash_bindings() {
        let src = "\
use std::collections::HashMap;
struct S { m: HashMap<u32, u32> }
impl S {
    fn dump(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (k, _) in self.m.iter() {
            out.push(*k);
        }
        for v in &self.m {
            out.push(v.0 + 1);
        }
        out
    }
}
";
        let lint = lint_file("crates/collect/src/controller.rs", src);
        let order_lines: Vec<usize> = lint
            .violations
            .iter()
            .filter(|v| v.rule == rule::ORDER)
            .map(|v| v.line)
            .collect();
        assert!(order_lines.contains(&6), "m.iter(): {order_lines:?}");
        assert!(order_lines.contains(&9), "for in &self.m: {order_lines:?}");
    }

    #[test]
    fn btreemap_is_clean_on_order_paths() {
        let src = "use std::collections::BTreeMap;\nstruct S { m: BTreeMap<u32, u32> }\nimpl S {\n    fn dump(&self) -> usize { self.m.iter().count() }\n}\n";
        let lint = lint_file("crates/collect/src/tsdb.rs", src);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
    }

    #[test]
    fn hygiene_flags_missing_attrs() {
        let good = "#![deny(unsafe_code)]\n#![deny(missing_docs)]\n#![warn(rust_2018_idioms)]\n";
        assert!(check_crate_root("crates/nn/src/lib.rs", good)
            .violations
            .is_empty());
        let bad = "#![deny(unsafe_code)]\n";
        assert_eq!(
            check_crate_root("crates/nn/src/lib.rs", bad)
                .violations
                .len(),
            2
        );
    }
}
