//! Workspace call-graph resolution over the [`crate::facts`] layer.
//!
//! Resolution is name-based (the lint never typechecks), so the policy
//! is engineered for *silence on std and noise control* rather than
//! completeness:
//!
//! * `Qual::name(…)` with an **uppercase** qualifier resolves only
//!   through the (impl type, method) index — `Vec::with_capacity`,
//!   `Arc::new`, enum constructors and every other std path fall out
//!   naturally because no workspace impl carries those type names;
//! * `qual::name(…)` with a **lowercase** qualifier maps the qualifier
//!   to a crate when it looks like one (`mcc_obs` → `obs`, `crate`/
//!   `self` → the caller's crate) and otherwise treats it as a module
//!   path, resolving against free functions (same crate preferred);
//! * `self.field.name(…)` with a field whose declared type is known
//!   resolves through the (impl type, method) index exclusively —
//!   possibly to nothing (atomics, std containers);
//! * any other `recv.name(…)` resolves against every workspace method
//!   of that name (receivers are untyped — over-approximate by design);
//! * `name(…)` resolves against free functions, same crate preferred.
//!
//! Functions in `#[cfg(test)]` regions and binary targets are excluded
//! from the graph entirely: they are neither callers, nor targets, nor
//! carriers of transitive facts.

use std::collections::{BTreeMap, BTreeSet};

use crate::facts::{CallSite, CallStyle, FactDb};

/// Workspace dependency closure: crate directory → every crate
/// directory it (transitively) depends on.
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

/// One resolved edge: `caller` (implicit) calls [`Edge::callee`] at
/// [`Edge::line`] (0-based, in the caller's file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee index into [`FactDb::functions`].
    pub callee: usize,
    /// Earliest call line in the caller.
    pub line: usize,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Per-function adjacency, sorted by callee index, one edge per
    /// callee (earliest call line wins).
    pub edges: Vec<Vec<Edge>>,
    /// Per-function, per-call-site resolved targets (aligned with
    /// `FactDb::functions[f].calls`), each sorted and deduplicated.
    pub call_targets: Vec<Vec<Vec<usize>>>,
    /// Whether each function participates in the graph (not test, not
    /// binary).
    pub included: Vec<bool>,
}

/// Name indexes over the fact database.
struct Indexes {
    free_by_name: BTreeMap<String, Vec<usize>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    by_impl: BTreeMap<(String, String), Vec<usize>>,
}

/// Maps a lowercase path qualifier to a crate directory name, if it
/// names one (`mcc` is the `core` crate; `mcc_graph` is `graph`).
fn qualifier_crate<'q>(qual: &'q str, caller_crate: &'q str) -> Option<&'q str> {
    match qual {
        "crate" | "self" | "super" => Some(caller_crate),
        "mcc" => Some("core"),
        _ => qual.strip_prefix("mcc_"),
    }
}

/// Builds the resolved call graph. `deps` narrows name-based (untyped)
/// resolution to crates the caller can actually see: a crate with a
/// manifest entry only resolves against itself and its transitive
/// dependencies (a crate with no entry is left unfiltered, which keeps
/// manifest-less fixture trees working).
pub fn build(db: &FactDb, deps: &CrateDeps) -> CallGraph {
    let n = db.functions.len();
    let mut included = vec![false; n];
    for (i, f) in db.functions.iter().enumerate() {
        included[i] = !f.is_test && !f.is_binary;
    }
    let mut idx = Indexes {
        free_by_name: BTreeMap::new(),
        methods_by_name: BTreeMap::new(),
        by_impl: BTreeMap::new(),
    };
    for (i, f) in db.functions.iter().enumerate() {
        if !included[i] {
            continue;
        }
        if f.has_self {
            idx.methods_by_name
                .entry(f.name.clone())
                .or_default()
                .push(i);
        } else {
            idx.free_by_name.entry(f.name.clone()).or_default().push(i);
        }
        if let Some(ty) = &f.impl_type {
            idx.by_impl
                .entry((ty.clone(), f.name.clone()))
                .or_default()
                .push(i);
        }
        // Trait-impl methods are also reachable through the trait name
        // (`dyn Trait` receivers, `Trait::method(x)` calls).
        if let Some(tr) = &f.trait_name {
            idx.by_impl
                .entry((tr.clone(), f.name.clone()))
                .or_default()
                .push(i);
        }
    }

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
    let mut call_targets: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n];
    for (i, f) in db.functions.iter().enumerate() {
        if !included[i] {
            continue;
        }
        let mut per_call = Vec::with_capacity(f.calls.len());
        for call in &f.calls {
            let mut targets = resolve(db, &idx, deps, &f.crate_name, call);
            targets.sort_unstable();
            targets.dedup();
            // Self-recursion adds nothing to any propagation.
            targets.retain(|&t| t != i);
            for &t in &targets {
                edges[i].push(Edge {
                    callee: t,
                    line: call.line,
                });
            }
            per_call.push(targets);
        }
        edges[i].sort_by_key(|e| (e.callee, e.line));
        edges[i].dedup_by_key(|e| e.callee);
        call_targets[i] = per_call;
    }
    CallGraph {
        edges,
        call_targets,
        included,
    }
}

/// Whether `caller_crate` can see items of `f`'s crate (same crate, a
/// transitive dependency, or the caller has no manifest entry).
fn sees(db: &FactDb, deps: &CrateDeps, caller_crate: &str, f: usize) -> bool {
    let fc = &db.functions[f].crate_name;
    fc == caller_crate
        || match deps.get(caller_crate) {
            Some(d) => d.contains(fc),
            None => true,
        }
}

/// Resolves one call site to candidate workspace functions.
fn resolve(
    db: &FactDb,
    idx: &Indexes,
    deps: &CrateDeps,
    caller_crate: &str,
    call: &CallSite,
) -> Vec<usize> {
    let none: Vec<usize> = Vec::new();
    match call.style {
        CallStyle::Method => {
            // A receiver with an unambiguously declared type resolves
            // through the impl index exclusively — resolving to nothing
            // when the type has no workspace impl (atomics, `Cell`s, std
            // containers). This is what keeps `self.hits.load(Ordering)`
            // from aliasing into `ArtifactStore::load`.
            if let Some(field) = &call.recv_field {
                let key = (caller_crate.to_string(), field.clone());
                if let Some(Some(ty)) = db.field_types.get(&key) {
                    return idx
                        .by_impl
                        .get(&(ty.clone(), call.name.clone()))
                        .cloned()
                        .unwrap_or(none);
                }
            }
            let candidates = idx.methods_by_name.get(&call.name).cloned().unwrap_or(none);
            candidates
                .into_iter()
                .filter(|&f| sees(db, deps, caller_crate, f))
                .collect()
        }
        CallStyle::Path => {
            let Some(qual) = call.qualifier.as_deref() else {
                return none;
            };
            if qual.chars().next().is_some_and(|c| c.is_uppercase()) {
                // Impl index only — no fallback, by policy.
                return idx
                    .by_impl
                    .get(&(qual.to_string(), call.name.clone()))
                    .cloned()
                    .unwrap_or(none);
            }
            let candidates = idx.free_by_name.get(&call.name).cloned().unwrap_or(none);
            if let Some(krate) = qualifier_crate(qual, caller_crate) {
                return candidates
                    .into_iter()
                    .filter(|&f| db.functions[f].crate_name == krate)
                    .collect();
            }
            // Module-style qualifier (`io::`, `cache::`): free functions,
            // same crate preferred.
            let candidates = candidates
                .into_iter()
                .filter(|&f| sees(db, deps, caller_crate, f))
                .collect();
            prefer_crate(db, candidates, caller_crate)
        }
        CallStyle::Bare => {
            let candidates: Vec<usize> = idx
                .free_by_name
                .get(&call.name)
                .cloned()
                .unwrap_or(none)
                .into_iter()
                .filter(|&f| sees(db, deps, caller_crate, f))
                .collect();
            prefer_crate(db, candidates, caller_crate)
        }
    }
}

/// Narrows `candidates` to the caller's crate when that subset is
/// non-empty (unqualified and module-qualified calls are almost always
/// intra-crate); falls back to the full set otherwise.
fn prefer_crate(db: &FactDb, candidates: Vec<usize>, caller_crate: &str) -> Vec<usize> {
    let same: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&f| db.functions[f].crate_name == caller_crate)
        .collect();
    if same.is_empty() {
        candidates
    } else {
        same
    }
}

/// One step of a forward witness path: the function visited and the
/// line of its call to the next step (`None` on the last step).
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Function index.
    pub func: usize,
    /// Call line to the next step, in this function's file.
    pub line_to_next: Option<usize>,
}

/// Shortest deterministic path from `start` to any function satisfying
/// `goal`, over graph edges. Returns `None` if unreachable.
pub fn path_to(graph: &CallGraph, start: usize, goal: impl Fn(usize) -> bool) -> Option<Vec<Step>> {
    let mut from: Vec<Option<(usize, usize)>> = vec![None; graph.edges.len()];
    let mut seen = vec![false; graph.edges.len()];
    let mut queue = std::collections::VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    let mut found = if goal(start) { Some(start) } else { None };
    while found.is_none() {
        let Some(f) = queue.pop_front() else { break };
        for e in &graph.edges[f] {
            if !seen[e.callee] {
                seen[e.callee] = true;
                from[e.callee] = Some((f, e.line));
                if goal(e.callee) {
                    found = Some(e.callee);
                    break;
                }
                queue.push_back(e.callee);
            }
        }
    }
    let end = found?;
    let mut rev: Vec<Step> = Vec::new();
    let mut cur = end;
    let mut line: Option<usize> = None;
    loop {
        rev.push(Step {
            func: cur,
            line_to_next: line,
        });
        match from[cur] {
            Some((p, l)) => {
                line = Some(l);
                cur = p;
            }
            None => break,
        }
    }
    rev.reverse();
    Some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts;
    use crate::lexer;
    use crate::{FileCtx, SourceFile};

    fn file(krate: &str, src: &str) -> SourceFile {
        SourceFile {
            ctx: FileCtx {
                rel_path: format!("crates/{krate}/src/lib.rs"),
                crate_name: krate.into(),
                is_binary: false,
            },
            analysis: lexer::analyze(src),
        }
    }

    #[test]
    fn uppercase_qualifiers_resolve_via_impl_index_only() {
        let src = "struct W;\n\
                   impl W { fn new() -> W { W } }\n\
                   fn mk() { let w = W::new(); let v = Vec::new(); other(); }\n\
                   fn other() {}\n";
        let db = facts::extract(&[file("x", src)]);
        let g = build(&db, &CrateDeps::new());
        let mk = db.functions.iter().position(|f| f.name == "mk");
        let w_new = db.functions.iter().position(|f| f.name == "new");
        let other = db.functions.iter().position(|f| f.name == "other");
        let callees: Vec<usize> = mk
            .map(|m| g.edges[m].iter().map(|e| e.callee).collect())
            .unwrap_or_default();
        // W::new resolves (workspace impl); Vec::new has no workspace
        // impl, so no edge; other() resolves bare.
        assert_eq!(
            callees,
            vec![w_new, other].into_iter().flatten().collect::<Vec<_>>()
        );
    }

    #[test]
    fn bare_calls_prefer_the_caller_crate() {
        let a = file("a", "fn go() { shared(); }\nfn shared() {}\n");
        let b = file("b", "fn shared() {}\n");
        let db = facts::extract(&[a, b]);
        let g = build(&db, &CrateDeps::new());
        let go = db.functions.iter().position(|f| f.name == "go");
        let shared_a = db
            .functions
            .iter()
            .position(|f| f.name == "shared" && f.crate_name == "a");
        let callees: Vec<usize> = go
            .map(|m| g.edges[m].iter().map(|e| e.callee).collect())
            .unwrap_or_default();
        assert_eq!(callees, shared_a.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn test_functions_are_outside_the_graph() {
        let src = "fn live() { helper(); }\nfn helper() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\n";
        let db = facts::extract(&[file("x", src)]);
        let g = build(&db, &CrateDeps::new());
        let t = db.functions.iter().position(|f| f.name == "t");
        assert_eq!(t.map(|i| g.included[i]), Some(false));
        assert_eq!(t.map(|i| g.edges[i].len()), Some(0));
    }

    #[test]
    fn paths_reconstruct_with_call_lines() {
        let src = "pub fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n";
        let db = facts::extract(&[file("x", src)]);
        let g = build(&db, &CrateDeps::new());
        let root = db.functions.iter().position(|f| f.name == "root");
        let leaf = db.functions.iter().position(|f| f.name == "leaf");
        let (Some(root), Some(leaf)) = (root, leaf) else {
            panic!("fns not extracted");
        };
        let Some(path) = path_to(&g, root, |f| f == leaf) else {
            panic!("leaf unreachable from root");
        };
        let names: Vec<&str> = path
            .iter()
            .map(|s| db.functions[s.func].name.as_str())
            .collect();
        assert_eq!(names, vec!["root", "mid", "leaf"]);
        assert_eq!(path[0].line_to_next, Some(0));
        assert_eq!(path[1].line_to_next, Some(1));
        assert_eq!(path[2].line_to_next, None);
    }
}
