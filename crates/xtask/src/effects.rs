//! The effect seed table shared by both reachability constraints.
//!
//! Each constraint is, at bottom, a ban on the *lexical seeds* of some
//! effects: `vec!` seeds `Alloc`, `Instant::now` seeds `Time`,
//! `std::fs` seeds `Io`, `SplitMix64::new` seeds `Rng`, and so on. The
//! reachability pass ([`crate::callgraph::analyze`]) bans them on every
//! function reachable from a marked root. Both constraints read the one
//! table here, so a construct is a seed of an effect everywhere or
//! nowhere.

use crate::callgraph::Graph;
use crate::rules::{
    is_test, match_pat, Pat, ALLOC_PATS, IO_PATS, RNG_PATS, THREAD_PATS, TIME_PATS,
};
use crate::scan::ScannedFile;

/// One effect a construct can seed. Panics are not here: clippy owns
/// them (`scripts/tier1.sh`, DESIGN.md §11.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Heap allocation on the steady-state path (`vec!`, `.collect()`).
    Alloc,
    /// Direct filesystem access (`std::fs`, `File::open`, ...).
    Io,
    /// Seeded-PRNG construction or use (`SplitMix64`).
    Rng,
    /// Raw thread creation (`thread::spawn`).
    ThreadSpawn,
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`).
    Time,
}

impl Effect {
    /// Every effect.
    pub const ALL: [Effect; 5] = [
        Effect::Alloc,
        Effect::Io,
        Effect::Rng,
        Effect::ThreadSpawn,
        Effect::Time,
    ];

    /// Display name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Alloc => "alloc",
            Effect::Io => "io",
            Effect::Rng => "rng",
            Effect::ThreadSpawn => "thread-spawn",
            Effect::Time => "time",
        }
    }
}

/// Which token patterns introduce each effect.
pub(crate) fn seed_pats(effect: Effect) -> &'static [Pat] {
    match effect {
        Effect::Alloc => ALLOC_PATS,
        Effect::Io => IO_PATS,
        Effect::Rng => RNG_PATS,
        Effect::ThreadSpawn => THREAD_PATS,
        Effect::Time => TIME_PATS,
    }
}

/// One lexical effect site inside a function body.
pub(crate) struct Site {
    /// The effect this site seeds.
    pub(crate) effect: Effect,
    /// 1-based source line.
    pub(crate) line: usize,
    /// Display form of the construct (e.g. `Instant::now`).
    pub(crate) what: &'static str,
}

/// Extracts the lexical effect sites of every graph node, in token
/// order. Nested-fn bodies are skipped (they are nodes of their own);
/// test nodes and test-gated lines contribute nothing.
pub(crate) fn lexical_sites(graph: &Graph, files: &[(String, ScannedFile)]) -> Vec<Vec<Site>> {
    graph
        .nodes
        .iter()
        .enumerate()
        .map(|(gid, node)| {
            let mut sites: Vec<Site> = Vec::new();
            let scanned = &files[node.file].1;
            let f = &scanned.fns[node.fn_idx];
            if f.item.is_test {
                return sites;
            }
            let Some((open, close)) = f.item.body else {
                return sites;
            };
            let tokens = &scanned.tokens;
            let mut i = open;
            while i <= close {
                if let Some(&(_, nc)) = graph.nested[gid].iter().find(|(no, _)| *no == i) {
                    i = nc + 1;
                    continue;
                }
                for e in Effect::ALL {
                    for pat in seed_pats(e) {
                        let Some(line) = match_pat(tokens, i, pat) else {
                            continue;
                        };
                        if is_test(scanned, line) {
                            continue;
                        }
                        sites.push(Site {
                            effect: e,
                            line,
                            what: pat.display,
                        });
                    }
                }
                i += 1;
            }
            sites
        })
        .collect()
}
