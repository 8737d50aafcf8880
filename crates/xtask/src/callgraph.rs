//! Approximate workspace call graph and the one reachability pass.
//!
//! [`Graph::build`] constructs a name-resolution call graph across every
//! scanned file. [`reach`] walks it forward from every
//! `// darlint: pure-root` function (WAL replay, `state_digest`,
//! `canonical_fingerprint*`, `metrics::compare`) and reports the banned
//! effect seeds ([`crate::effects::lexical_sites`]) of every function it
//! reaches, with the `root → … → site` chain in the diagnostic: `Time`,
//! `Rng`, `ThreadSpawn`, and `Io` outside [`DURABLE_IO_ALLOWLIST`] are
//! findings (`replay-pure`). Nothing prunes the walk.
//!
//! Resolution is deliberately approximate (no type information):
//!
//! * `recv.name(...)` resolves to every non-test method `name` taking
//!   `self`, except the [`UNIVERSAL_METHODS`] stoplist (std names like
//!   `clone`/`len`/`push` that would wire the graph to unrelated impls);
//! * `Qual::name(...)` resolves to methods/associated fns of the impl or
//!   trait owner `Qual` (`Self` maps to the caller's owner), falling
//!   back to free functions `name` when no owner matches (covers
//!   `module::free_fn(...)` paths);
//! * `name(...)` resolves to free functions of that name.
//!
//! Over-approximation errs toward *more* reachability, which is the safe
//! direction for a constraint checker; function *references* passed as
//! values (`map(helper)`) and trait-object calls through stoplisted
//! names (`storage.read(...)`) are the under-approximated forms.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::effects::{lexical_sites, Effect, Site};
use crate::lex::TokKind;
use crate::rules::{rule, skip_angles, snippet, FileLint, Violation};
use crate::scan::ScannedFile;

/// Method names never used for call-graph resolution: std vocabulary so
/// common that name matching would connect the graph to unrelated impls.
/// The cost of listing a name here is only that a *custom* method with
/// the same name is not traversed — its body is still checked if it is
/// reachable some other way or is a root itself.
const UNIVERSAL_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_mut_slice",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search_by",
    "borrow",
    "borrow_mut",
    "ceil",
    "chunks",
    "chunks_exact",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "default",
    "deref",
    "deref_mut",
    "drain",
    "drop",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "exp",
    "extend",
    "fill",
    "filter",
    "find",
    "first",
    "floor",
    "flush",
    "fmt",
    "fold",
    "from_bits",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "ne",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "partial_cmp",
    "pop",
    "position",
    "pow",
    "powf",
    "powi",
    "push",
    "push_str",
    "read",
    "remove",
    "replace",
    "rev",
    "round",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "split_at",
    "split_at_mut",
    "sqrt",
    "starts_with",
    "sum",
    "take",
    "to_bits",
    "to_owned",
    "to_string",
    "trim",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "write",
    "write_all",
    "zip",
];

/// One function node in the workspace graph.
pub struct Node {
    /// Index into the scanned-files slice.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
    /// `// darlint: pure-root`: a replay-purity contract root, where the
    /// reachability pass starts.
    pub pure_root: bool,
    /// Inside a `cfg(test)` region: excluded from resolution and edges.
    pub is_test: bool,
}

/// The workspace call graph: one node per `fn` item, name-resolved call
/// edges, and the nested-fn token spans each analysis must skip when
/// scanning a body (nested fns are nodes of their own).
pub struct Graph {
    /// All function nodes, in (file, declaration) order.
    pub nodes: Vec<Node>,
    /// `edges[gid]` = callee node ids (sorted, deduplicated).
    pub edges: Vec<BTreeSet<usize>>,
    /// Per node: token spans of functions nested inside its body.
    pub(crate) nested: Vec<Vec<(usize, usize)>>,
}

impl Graph {
    /// Builds the graph over all scanned files.
    pub fn build(files: &[(String, ScannedFile)]) -> Graph {
        let mut nodes: Vec<Node> = Vec::new();
        // Resolution indices over non-test functions.
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();

        for (fi, (_, scanned)) in files.iter().enumerate() {
            for (ki, f) in scanned.fns.iter().enumerate() {
                let gid = nodes.len();
                let item = &f.item;
                nodes.push(Node {
                    file: fi,
                    fn_idx: ki,
                    pure_root: !item.is_test && f.pure_root,
                    is_test: item.is_test,
                });
                if item.is_test {
                    continue;
                }
                if item.has_self {
                    methods_by_name
                        .entry(item.name.clone())
                        .or_default()
                        .push(gid);
                }
                if let Some(owner) = &item.owner {
                    by_owner
                        .entry((owner.clone(), item.name.clone()))
                        .or_default()
                        .push(gid);
                } else if !item.has_self {
                    free_by_name.entry(item.name.clone()).or_default().push(gid);
                }
            }
        }

        // Token spans to skip per node: bodies of functions nested inside
        // it (they are nodes of their own, connected by call edges).
        let nested: Vec<Vec<(usize, usize)>> = nodes
            .iter()
            .map(|n| {
                let scanned = &files[n.file].1;
                let Some((open, close)) = scanned.fns[n.fn_idx].item.body else {
                    return Vec::new();
                };
                scanned
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != n.fn_idx)
                    .filter_map(|(_, g)| g.item.body)
                    .filter(|(o, c)| *o > open && *c < close)
                    .collect()
            })
            .collect();

        // Call edges.
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
        for (gid, node) in nodes.iter().enumerate() {
            let (_, scanned) = &files[node.file];
            let f = &scanned.fns[node.fn_idx];
            if f.item.is_test {
                continue;
            }
            let Some((open, close)) = f.item.body else {
                continue;
            };
            let tokens = &scanned.tokens;
            let mut i = open;
            while i <= close {
                if let Some(&(_, nc)) = nested[gid].iter().find(|(no, _)| *no == i) {
                    i = nc + 1;
                    continue;
                }
                let t = &tokens[i];
                // `.name(...)` — method call (turbofish-tolerant).
                if t.is_punct('.') && tokens.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                    let name = tokens[i + 1].text.as_str();
                    let mut j = i + 2;
                    if tokens.get(j).is_some_and(|t| t.is_punct(':'))
                        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                        && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
                    {
                        j = skip_angles(tokens, j + 2);
                    }
                    if tokens.get(j).is_some_and(|t| t.is_punct('('))
                        && !UNIVERSAL_METHODS.contains(&name)
                    {
                        if let Some(cands) = methods_by_name.get(name) {
                            edges[gid].extend(cands.iter().copied());
                        }
                    }
                    i += 2;
                    continue;
                }
                // `Qual::name(...)` — associated/qualified call. Matching
                // at the *last* `X :: name (` pair means `a::b::c(...)`
                // resolves with owner `b`, which is the segment that
                // names an impl.
                if t.kind == TokKind::Ident
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && tokens.get(i + 3).is_some_and(|n| n.kind == TokKind::Ident)
                {
                    let mut j = i + 4;
                    if tokens.get(j).is_some_and(|t| t.is_punct(':'))
                        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                        && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
                    {
                        j = skip_angles(tokens, j + 2);
                    }
                    if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                        let name = tokens[i + 3].text.as_str();
                        let owner = if t.is_ident("Self") {
                            f.item.owner.clone().unwrap_or_default()
                        } else {
                            t.text.clone()
                        };
                        match by_owner.get(&(owner, name.to_owned())) {
                            Some(cands) => edges[gid].extend(cands.iter().copied()),
                            // `module::free_fn(...)`: the qualifier is a
                            // module path segment, not an impl owner.
                            None => {
                                if let Some(cands) = free_by_name.get(name) {
                                    edges[gid].extend(cands.iter().copied());
                                }
                            }
                        }
                    }
                    i += 1;
                    continue;
                }
                // `name(...)` — free-function call. Excludes definitions
                // (`fn name(`), method calls (handled above), and path
                // tails.
                if t.kind == TokKind::Ident
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && !(i > 0
                        && (tokens[i - 1].is_punct('.')
                            || tokens[i - 1].is_punct(':')
                            || tokens[i - 1].is_ident("fn")))
                {
                    if let Some(cands) = free_by_name.get(t.text.as_str()) {
                        edges[gid].extend(cands.iter().copied());
                    }
                }
                i += 1;
            }
        }

        Graph {
            nodes,
            edges,
            nested,
        }
    }

    /// `Owner::name` display form for diagnostics.
    pub fn display(&self, files: &[(String, ScannedFile)], gid: usize) -> String {
        let n = &self.nodes[gid];
        let item = &files[n.file].1.fns[n.fn_idx].item;
        match &item.owner {
            Some(o) => format!("{o}::{}", item.name),
            None => item.name.clone(),
        }
    }
}

/// Files or path prefixes (workspace-relative, `/`-separated) that own
/// durable I/O: the WAL's directory storage backend, model/experiment
/// persistence, the bench harness, and the xtask driver that walks the
/// workspace. They are the files `clippy.toml`'s filesystem ban grants;
/// here they are the replay input, so their `Io` seeds are not
/// `replay-pure` findings.
pub const DURABLE_IO_ALLOWLIST: &[&str] = &[
    "crates/collect/src/wal.rs",
    "crates/core/src/model_io.rs",
    "crates/core/src/experiment.rs",
    "crates/bench/",
    "crates/xtask/src/lib.rs",
];

/// Runs the interprocedural half of the lint over all scanned files —
/// graph construction, effect-seed extraction, and [`reach`] — appending
/// to `out`. `lap` is called with a pass name as each pass finishes (the
/// workspace driver times them).
pub fn analyze(
    files: &[(String, ScannedFile)],
    mut lap: impl FnMut(&'static str),
    out: &mut FileLint,
) {
    let graph = Graph::build(files);
    lap("callgraph");
    let seeds = lexical_sites(&graph, files);
    lap("effect-seeds");
    reach(&graph, files, &seeds, out);
    lap("reach-pure");
}

/// Whether a seed of `effect`, in the file at `path`, breaks the
/// replay-purity contract: nothing reachable from a pure root may read a
/// clock, draw randomness, spawn a thread, or touch the filesystem
/// outside [`DURABLE_IO_ALLOWLIST`] (replay *reads its own storage* by
/// design — the durable-I/O owners are the replay input, not a purity
/// leak). Hash iteration order needs no effect: `clippy.toml` bans the
/// hash containers outright.
fn impure(effect: Effect, path: &str) -> bool {
    match effect {
        Effect::Time | Effect::Rng | Effect::ThreadSpawn => true,
        Effect::Io => !DURABLE_IO_ALLOWLIST
            .iter()
            .any(|a| path == *a || (a.ends_with('/') && path.starts_with(a))),
    }
}

/// The one reachability pass: BFS from every pure root over call edges
/// (never into test code), then every impure seed site of every reached
/// function becomes a `replay-pure` violation naming the root-to-site
/// chain. `seeds` must come from [`lexical_sites`] over the same graph.
fn reach(graph: &Graph, files: &[(String, ScannedFile)], seeds: &[Vec<Site>], out: &mut FileLint) {
    // Predecessor links feed the diagnostics; BFS makes each chain a
    // shortest one and visits every node once, so cycles terminate.
    let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
    let mut visited: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&gid| graph.nodes[gid].pure_root)
        .collect();
    let mut queue: VecDeque<usize> = visited.iter().copied().collect();
    while let Some(gid) = queue.pop_front() {
        for &next in &graph.edges[gid] {
            if graph.nodes[next].is_test || !visited.insert(next) {
                continue;
            }
            pred.insert(next, gid);
            queue.push_back(next);
        }
    }

    for &gid in &visited {
        let node = &graph.nodes[gid];
        let (path, scanned) = &files[node.file];
        let mut banned = seeds[gid]
            .iter()
            .filter(|s| impure(s.effect, path))
            .peekable();
        if banned.peek().is_none() {
            continue;
        }
        let mut chain: Vec<String> = vec![graph.display(files, gid)];
        let mut cur = gid;
        while let Some(&p) = pred.get(&cur) {
            chain.push(graph.display(files, p));
            cur = p;
        }
        chain.reverse();
        let via = chain.join(" → ");
        for site in banned {
            out.violations.push(Violation {
                rule: rule::REPLAY_PURE,
                file: path.clone(),
                line: site.line,
                message: format!(
                    "`{}` is a {} effect on a replay-pure path via {via}; \
                     replay/digest outputs must be bitwise-reproducible — \
                     fix it, or narrow the `// darlint: pure-root` root",
                    site.what,
                    site.effect.name()
                ),
                snippet: snippet(&scanned.lines, site.line),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn run(files: &[(&str, &str)]) -> FileLint {
        let scanned: Vec<(String, ScannedFile)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), scan(s)))
            .collect();
        let mut out = FileLint::default();
        analyze(&scanned, |_| {}, &mut out);
        out
    }

    #[test]
    fn two_hop_propagation_flags_unmarked_helper() {
        // pure root → helper_a → helper_b (reads the clock): flagged with
        // the chain.
        let src = "\
// darlint: pure-root
pub fn digest_into(out: &mut u64) {
    helper_a(out);
}

fn helper_a(out: &mut u64) {
    helper_b(out);
}

fn helper_b(_out: &mut u64) {
    let _stamp = std::time::Instant::now();
}
";
        let lint = run(&[("crates/nn/src/fixture.rs", src)]);
        assert_eq!(lint.violations.len(), 1, "{:?}", lint.violations);
        let v = &lint.violations[0];
        assert_eq!(v.rule, rule::REPLAY_PURE);
        assert_eq!(v.line, 11);
        assert!(
            v.message.contains("digest_into → helper_a → helper_b"),
            "{}",
            v.message
        );
    }

    #[test]
    fn propagation_crosses_files() {
        let a = "// darlint: pure-root\npub fn digest(x: u32) { crate::util::stamp(x); }\n";
        let b = "pub fn stamp(_x: u32) { let _t = std::time::Instant::now(); }\n";
        let lint = run(&[("crates/nn/src/dense.rs", a), ("crates/nn/src/util.rs", b)]);
        assert_eq!(lint.violations.len(), 1, "{:?}", lint.violations);
        assert_eq!(lint.violations[0].file, "crates/nn/src/util.rs");
    }

    #[test]
    fn method_and_qualified_calls_resolve() {
        let src = "\
pub struct Dense;
impl Dense {
    // darlint: pure-root
    pub fn digest(&self, x: u32) {
        self.project(x);
        Dense::assoc(x);
    }
    fn project(&self, _x: u32) {
        let _p = std::time::Instant::now();
    }
    fn assoc(_x: u32) {
        let _a = std::time::SystemTime::now();
    }
}
";
        let lint = run(&[("crates/nn/src/dense.rs", src)]);
        let lines: Vec<usize> = lint.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![9, 12], "{:?}", lint.violations);
    }

    #[test]
    fn test_functions_never_enter_the_graph() {
        let src = "\
// darlint: pure-root
pub fn digest(x: u32) { let _ = x; }

#[cfg(test)]
mod tests {
    fn helper() { let _t = std::time::Instant::now(); super::digest(1); }
}
";
        let lint = run(&[("crates/nn/src/fixture.rs", src)]);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
    }

    #[test]
    fn universal_method_names_do_not_wire_the_graph() {
        // `.len()` on a Vec must not resolve to some custom `len` impl.
        let src = "\
pub struct Pool;
impl Pool {
    fn len(&self) -> usize {
        let _t = std::time::Instant::now();
        1
    }
}
// darlint: pure-root
pub fn digest(v: &[u32]) -> usize { v.len() }
";
        let lint = run(&[("crates/nn/src/fixture.rs", src)]);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
    }

    #[test]
    fn graph_exposes_markers_on_nodes() {
        let src = "\
// darlint: pure-root
pub fn digest() -> u64 { helper() }

fn helper() -> u64 { 0 }
";
        let scanned = vec![("crates/collect/src/fixture.rs".to_owned(), scan(src))];
        let graph = Graph::build(&scanned);
        assert!(graph.nodes[0].pure_root);
        assert!(!graph.nodes[1].pure_root);
        assert!(graph.edges[0].contains(&1), "digest → helper edge");
        assert_eq!(graph.display(&scanned, 0), "digest");
    }

    #[test]
    fn replay_pure_flags_transitive_time_leak_with_chain() {
        let lint = run(&[(
            "crates/collect/src/fixture.rs",
            "// darlint: pure-root\npub fn digest() -> u64 { helper() }\nfn helper() -> u64 { let _ = std::time::Instant::now(); 0 }\n",
        )]);
        assert_eq!(lint.violations.len(), 1, "{:?}", lint.violations);
        let v = &lint.violations[0];
        assert_eq!(v.rule, rule::REPLAY_PURE);
        assert_eq!(v.line, 3);
        assert!(v.message.contains("via digest → helper"), "{}", v.message);
        assert!(v.message.contains("time effect"), "{}", v.message);
    }

    #[test]
    fn replay_pure_allows_alloc_and_sanctioned_io() {
        // Allocation is no effect at all; Io inside a durable-I/O owner
        // (here: the WAL) is the replay input, not a leak.
        let lint = run(&[(
            "crates/collect/src/wal.rs",
            "// darlint: pure-root\npub fn replay() -> Vec<u8> { std::fs::read(\"wal\").unwrap_or_default().to_vec() }\n",
        )]);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
    }

    #[test]
    fn replay_pure_bans_io_outside_durable_owners() {
        let lint = run(&[(
            "crates/collect/src/fixture.rs",
            "// darlint: pure-root\npub fn digest() -> Vec<u8> { std::fs::read(\"x\").unwrap_or_default() }\n",
        )]);
        assert_eq!(lint.violations.len(), 1, "{:?}", lint.violations);
        assert!(lint.violations[0].message.contains("io effect"));
    }

    #[test]
    fn unmarked_functions_are_not_replay_constrained() {
        let lint = run(&[(
            "crates/collect/src/fixture.rs",
            "pub fn free() -> u64 { let _ = std::time::Instant::now(); 0 }\n",
        )]);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
    }

    #[test]
    fn replay_pure_flags_a_callee_drawing_randomness() {
        let lint = run(&[(
            "crates/core/src/a.rs",
            "pub fn dump(r: &mut SplitMix64) -> u64 { r.next_u64() }\n\
             // darlint: pure-root\n\
             pub fn caller(r: &mut SplitMix64) -> u64 { dump(r) }\n",
        )]);
        assert_eq!(lint.violations.len(), 1, "{:?}", lint.violations);
        let v = &lint.violations[0];
        assert_eq!((v.rule, v.line), (rule::REPLAY_PURE, 1), "{v:?}");
        assert!(v.message.contains("rng effect"), "{}", v.message);
        assert!(v.message.contains("via caller → dump"), "{}", v.message);
    }
}
