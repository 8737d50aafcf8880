//! Approximate workspace call graph and the one reachability pass.
//!
//! [`Graph::build`] constructs a name-resolution call graph across every
//! scanned file. [`reach`] walks it forward from a set of marked roots
//! and reports the banned effect seeds
//! ([`crate::effects::lexical_sites`]) of every function it reaches,
//! with the `root → … → site` chain in the diagnostic. Two constraint
//! rows run through it:
//!
//! * [`HOT`] — roots are the `// darlint: hot` functions plus the
//!   `*_into` layer/kernel entries in `tensor` and `nn`;
//!   `// darlint: cold — <reason>` prunes the walk; `Alloc` seeds are
//!   findings (`hot-alloc` in a function that carries the marker itself,
//!   `hot-propagate` in one that is only reached).
//! * [`PURE`] — roots are the `// darlint: pure-root` functions (WAL
//!   replay, `state_digest`, `canonical_fingerprint*`,
//!   `metrics::compare`); nothing prunes; `Time`, `Rng`, `ThreadSpawn`,
//!   and `Io` outside [`DURABLE_IO_ALLOWLIST`] are findings
//!   (`replay-pure`).
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
/// reachable some other way or marked hot directly.
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

/// Crates whose `*_into` functions are implicit hot roots: the layer
/// forwards and kernel writers of the zero-alloc inference path.
const INTO_ROOT_PREFIXES: &[&str] = &["crates/tensor/", "crates/nn/"];

/// One function node in the workspace graph.
pub struct Node {
    /// Index into the scanned-files slice.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
    /// Carries an explicit `// darlint: hot` marker.
    pub hot: bool,
    /// Root of hot-path propagation: marked hot, or an `*_into` entry in
    /// `tensor`/`nn` (non-test, non-cold).
    pub hot_root: bool,
    /// `// darlint: cold — <reason>`: pruned from hot-path traversal.
    pub cold: bool,
    /// `// darlint: pure-root`: a replay-purity contract root
    /// (see [`PURE`]).
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

        for (fi, (path, scanned)) in files.iter().enumerate() {
            for (ki, f) in scanned.fns.iter().enumerate() {
                let gid = nodes.len();
                let item = &f.item;
                let is_into_root = item.name.ends_with("_into")
                    && INTO_ROOT_PREFIXES.iter().any(|p| path.starts_with(p));
                nodes.push(Node {
                    file: fi,
                    fn_idx: ki,
                    hot: f.hot,
                    hot_root: !item.is_test && !f.cold && (f.hot || is_into_root),
                    cold: f.cold,
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

/// One reachability constraint: where the walk starts, where it stops,
/// and which effect seeds are findings on the functions it reaches.
struct Constraint {
    /// Does the walk start at this node?
    root: fn(&Node) -> bool,
    /// Does the walk refuse to enter this node?
    prune: fn(&Node) -> bool,
    /// Is a seed of this effect, in the file at this path, a finding?
    bans: fn(Effect, &str) -> bool,
    /// Rule id of a finding inside this node.
    rule: fn(&Node) -> &'static str,
    /// Diagnostic for a banned site reached along `via` (`a → b → c`).
    message: fn(&Site, &str) -> String,
}

/// The zero-alloc inference path: nothing reachable from a hot root may
/// allocate. A finding in a function that carries the `hot` marker
/// itself keeps the `hot-alloc` id; one in a function that is only
/// reached is `hot-propagate`.
const HOT: Constraint = Constraint {
    root: |n| n.hot_root,
    prune: |n| n.cold,
    bans: |e, _| e == Effect::Alloc,
    rule: |n| {
        if n.hot {
            rule::HOT_ALLOC
        } else {
            rule::HOT_PROPAGATE
        }
    },
    message: |site, via| {
        format!(
            "`{}` allocates on the hot path via {via}; use a workspace \
             checkout or an `_into` kernel, or mark the function \
             `// darlint: cold — <reason>`",
            site.what
        )
    },
};

/// Files or path prefixes (workspace-relative, `/`-separated) that own
/// durable I/O: the WAL's directory storage backend, model/experiment
/// persistence, the bench harness, and the xtask driver that walks the
/// workspace. They are the files `clippy.toml`'s filesystem ban grants;
/// here they are the replay input, so their `Io` seeds do not break
/// [`PURE`].
pub const DURABLE_IO_ALLOWLIST: &[&str] = &[
    "crates/collect/src/wal.rs",
    "crates/core/src/model_io.rs",
    "crates/core/src/experiment.rs",
    "crates/bench/",
    "crates/xtask/src/lib.rs",
];

/// The replay-purity contract: nothing reachable from a pure root may
/// read a clock, draw randomness, spawn a thread, or touch the filesystem
/// outside [`DURABLE_IO_ALLOWLIST`] (replay *reads its own storage* by
/// design — the durable-I/O owners are the replay input, not a purity
/// leak). Hash iteration order needs no effect: `clippy.toml` bans the
/// hash containers outright. `cold` does not prune here: it is a claim
/// about the hot path only.
const PURE: Constraint = Constraint {
    root: |n| n.pure_root,
    prune: |_| false,
    bans: |e, path| match e {
        Effect::Time | Effect::Rng | Effect::ThreadSpawn => true,
        Effect::Io => !DURABLE_IO_ALLOWLIST
            .iter()
            .any(|a| path == *a || (a.ends_with('/') && path.starts_with(a))),
        Effect::Alloc => false,
    },
    rule: |_| rule::REPLAY_PURE,
    message: |site, via| {
        format!(
            "`{}` is a {} effect on a replay-pure path via {via}; \
             replay/digest outputs must be bitwise-reproducible — \
             fix it, or narrow the `// darlint: pure-root` root",
            site.what,
            site.effect.name()
        )
    },
};

/// Runs the interprocedural half of the lint over all scanned files —
/// graph construction, effect-seed extraction, and [`reach`] under
/// [`HOT`] then [`PURE`] — appending to `out`. `lap` is called with a
/// pass name as each pass finishes (the workspace driver times them).
pub fn analyze(
    files: &[(String, ScannedFile)],
    mut lap: impl FnMut(&'static str),
    out: &mut FileLint,
) {
    let graph = Graph::build(files);
    lap("callgraph");
    let seeds = lexical_sites(&graph, files);
    lap("effect-seeds");
    reach(&graph, files, &seeds, &HOT, out);
    lap("reach-hot");
    reach(&graph, files, &seeds, &PURE, out);
    lap("reach-pure");
}

/// The one reachability pass: BFS from `c`'s roots over call edges
/// (never into test code or pruned nodes), then every banned seed site
/// of every reached function becomes a violation naming the
/// root-to-site chain.
/// `seeds` must come from [`lexical_sites`] over the same graph.
fn reach(
    graph: &Graph,
    files: &[(String, ScannedFile)],
    seeds: &[Vec<Site>],
    c: &Constraint,
    out: &mut FileLint,
) {
    // Predecessor links feed the diagnostics; BFS makes each chain a
    // shortest one and visits every node once, so cycles terminate.
    let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
    let mut visited: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&gid| (c.root)(&graph.nodes[gid]))
        .collect();
    let mut queue: VecDeque<usize> = visited.iter().copied().collect();
    while let Some(gid) = queue.pop_front() {
        for &next in &graph.edges[gid] {
            let n = &graph.nodes[next];
            if n.is_test || (c.prune)(n) || !visited.insert(next) {
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
            .filter(|s| (c.bans)(s.effect, path))
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
        let rule_id = (c.rule)(node);
        for site in banned {
            out.violations.push(Violation {
                rule: rule_id,
                file: path.clone(),
                line: site.line,
                message: (c.message)(site, &via),
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
        // hot root → helper_a → helper_b (allocates): flagged with chain.
        let src = "\
// darlint: hot
pub fn step_into(ws: &mut Workspace) {
    helper_a(ws);
}

fn helper_a(ws: &mut Workspace) {
    helper_b(ws);
}

fn helper_b(_ws: &mut Workspace) {
    let _scratch = vec![0u8; 64];
}
";
        let lint = run(&[("crates/nn/src/fixture.rs", src)]);
        assert_eq!(lint.violations.len(), 1, "{:?}", lint.violations);
        let v = &lint.violations[0];
        assert_eq!(v.rule, rule::HOT_PROPAGATE);
        assert_eq!(v.line, 11);
        assert!(
            v.message.contains("step_into → helper_a → helper_b"),
            "{}",
            v.message
        );
    }

    #[test]
    fn propagation_crosses_files() {
        let a = "// darlint: hot\npub fn forward_into(x: u32) { crate::util::scratch(x); }\n";
        let b = "pub fn scratch(_x: u32) { let _v = vec![1u8]; }\n";
        let lint = run(&[("crates/nn/src/dense.rs", a), ("crates/nn/src/util.rs", b)]);
        assert_eq!(lint.violations.len(), 1, "{:?}", lint.violations);
        assert_eq!(lint.violations[0].file, "crates/nn/src/util.rs");
    }

    #[test]
    fn into_suffix_is_an_implicit_root_in_kernel_crates() {
        let src = "pub fn matmul_into(out: &mut [f32]) { helper(out); }\nfn helper(_o: &mut [f32]) { let _t = [0f32; 4].to_vec(); }\n";
        let lint = run(&[("crates/tensor/src/matmul.rs", src)]);
        assert_eq!(lint.violations.len(), 1, "{:?}", lint.violations);
        // The same code outside tensor/nn is not implicitly rooted.
        let lint = run(&[("crates/collect/src/loadgen.rs", src)]);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
    }

    #[test]
    fn cold_marker_prunes_traversal() {
        let src = "\
// darlint: hot
pub fn step_into(x: u32) {
    diagnostics(x);
}

// darlint: cold — error formatting, never on the steady-state path
fn diagnostics(x: u32) {
    let _msg = vec![x as u8];
}
";
        let lint = run(&[("crates/nn/src/fixture.rs", src)]);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
    }

    #[test]
    fn method_and_qualified_calls_resolve() {
        let src = "\
pub struct Dense;
impl Dense {
    // darlint: hot
    pub fn forward_into(&self, x: u32) {
        self.project(x);
        Dense::assoc(x);
    }
    fn project(&self, x: u32) {
        let _p = vec![x as u8];
    }
    fn assoc(x: u32) {
        let _a = vec![x as u8];
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
// darlint: hot
pub fn step_into(x: u32) { let _ = x; }

#[cfg(test)]
mod tests {
    fn helper() { let _v = vec![1u8]; super::step_into(1); }
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
        let _v = vec![0u8; 1];
        1
    }
}
// darlint: hot
pub fn step_into(v: &[u32]) -> usize { v.len() }
";
        let lint = run(&[("crates/nn/src/fixture.rs", src)]);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
    }

    #[test]
    fn graph_exposes_markers_on_nodes() {
        let src = "\
// darlint: pure-root
pub fn digest() -> u64 { helper() }

// darlint: cold — diagnostics only
fn helper() -> u64 { 0 }
";
        let scanned = vec![("crates/collect/src/fixture.rs".to_owned(), scan(src))];
        let graph = Graph::build(&scanned);
        assert!(graph.nodes[0].pure_root);
        assert!(!graph.nodes[0].cold);
        assert!(graph.nodes[1].cold);
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
        // Alloc is not a purity concern; Io inside a durable-I/O owner
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
