//! Fixed-point propagation over the call graph: the workspace rules.
//!
//! Three analyses run here, all deterministic (functions are visited in
//! database order, which follows the sorted file walk; adjacency is
//! sorted; lock sets are bitmasks):
//!
//! * **lock-order** — transitive lock sets per function (fixed point),
//!   then an order graph: lock A → lock B when some function acquires
//!   B — directly or through calls — while holding A. Any cycle is a
//!   potential deadlock; the diagnostic carries one witness chain per
//!   edge of the cycle.
//! * **blocking-under-lock** — blocking I/O (`fs::`/`File::`/fsync)
//!   and artifact classification must not be reachable while any lock
//!   is held: direct sites and call sites are both flagged, the latter
//!   with the call path down to the I/O.
//! * **condvar-discipline** — reads facts only: every
//!   `Condvar::wait`/`wait_timeout` must sit inside a predicate loop.

use std::collections::BTreeMap;

use crate::callgraph::{self, CallGraph};
use crate::facts::{FactDb, FnFact};
use crate::{Diagnostic, Workspace};

/// Bitmask over lock indices (the workspace has single digits of locks;
/// 128 is a hard ceiling enforced at extraction scale).
type LockMask = u128;

fn mask_of(lock: usize) -> LockMask {
    if lock < 128 {
        1u128 << lock
    } else {
        0
    }
}

fn loc(f: &FnFact, line: usize) -> String {
    format!("{}:{}", f.file, line + 1)
}

/// `condvar-discipline`: every wait sits inside a predicate loop.
pub fn condvar_discipline(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let db = &ws.facts;
    for (fi, f) in db.functions.iter().enumerate() {
        if !ws.graph.included[fi] {
            continue;
        }
        for w in &f.waits {
            if w.in_loop || w.exempt {
                continue;
            }
            out.push(Diagnostic {
                file: f.file.clone(),
                line: w.line + 1,
                rule: "condvar-discipline",
                message: format!(
                    "`Condvar::{}` on `{}` outside a predicate loop — spurious wakeups \
                     require `while !cond {{ … }}` (or `wait_while`)",
                    w.method,
                    db.locks[w.lock].id()
                ),
            });
        }
    }
}

/// Per-function transitive lock sets: the locks a call into `f` may
/// acquire, computed to a fixed point over the call graph.
fn transitive_locks(db: &FactDb, graph: &CallGraph) -> Vec<LockMask> {
    let n = db.functions.len();
    let mut direct = vec![0 as LockMask; n];
    for (i, f) in db.functions.iter().enumerate() {
        if !graph.included[i] {
            continue;
        }
        for s in &f.lock_sites {
            if !s.exempt {
                direct[i] |= mask_of(s.lock);
            }
        }
    }
    let mut trans = direct.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let mut m = trans[i];
            for e in &graph.edges[i] {
                m |= trans[e.callee];
            }
            if m != trans[i] {
                trans[i] = m;
                changed = true;
            }
        }
    }
    trans
}

/// One lock-order edge's evidence.
enum Witness {
    /// `func` holds the outer lock (site `outer`) and directly acquires
    /// the inner one (site `inner`).
    Direct {
        func: usize,
        outer: usize,
        inner: usize,
    },
    /// `func` holds the outer lock (site `outer`) and makes a call
    /// (index `call`) that reaches a function acquiring `inner_lock`.
    Trans {
        func: usize,
        outer: usize,
        call: usize,
        target: usize,
        inner_lock: usize,
    },
}

/// Renders one witness chain for the edge `a → b`.
fn render_witness(ws: &Workspace, direct: &[LockMask], w: &Witness) -> String {
    let db = &ws.facts;
    match *w {
        Witness::Direct { func, outer, inner } => {
            let f = &db.functions[func];
            let o = &f.lock_sites[outer];
            let i = &f.lock_sites[inner];
            format!(
                "`{}` acquires `{}` ({}) then `{}` ({})",
                f.display(),
                db.locks[o.lock].id(),
                loc(f, o.line),
                db.locks[i.lock].id(),
                loc(f, i.line)
            )
        }
        Witness::Trans {
            func,
            outer,
            call,
            target,
            inner_lock,
        } => {
            let f = &db.functions[func];
            let o = &f.lock_sites[outer];
            let c = &f.calls[call];
            let mut s = format!(
                "`{}` acquires `{}` ({}) then calls `{}` ({})",
                f.display(),
                db.locks[o.lock].id(),
                loc(f, o.line),
                c.name,
                loc(f, c.line)
            );
            // Forward path from the call target down to a function that
            // directly acquires the inner lock.
            let goal = |x: usize| direct[x] & mask_of(inner_lock) != 0;
            if let Some(path) = callgraph::path_to(&ws.graph, target, goal) {
                for step in &path {
                    let sf = &db.functions[step.func];
                    match step.line_to_next {
                        Some(l) => {
                            s.push_str(&format!(" → `{}` ({})", sf.display(), loc(sf, l)));
                        }
                        None => {
                            let site = sf
                                .lock_sites
                                .iter()
                                .find(|ls| !ls.exempt && ls.lock == inner_lock);
                            match site {
                                Some(site) => s.push_str(&format!(
                                    " → `{}` acquires `{}` ({})",
                                    sf.display(),
                                    db.locks[inner_lock].id(),
                                    loc(sf, site.line)
                                )),
                                None => s.push_str(&format!(" → `{}`", sf.display())),
                            }
                        }
                    }
                }
            }
            s
        }
    }
}

/// Anchor location (file, 1-based line) for a witness: the outer
/// acquisition.
fn witness_anchor(db: &FactDb, w: &Witness) -> (String, usize) {
    let (func, outer) = match *w {
        Witness::Direct { func, outer, .. } | Witness::Trans { func, outer, .. } => (func, outer),
    };
    let f = &db.functions[func];
    (f.file.clone(), f.lock_sites[outer].line + 1)
}

/// `lock-order`: builds the acquisition-order graph and reports every
/// cycle (strongly connected component of ≥ 2 locks) as a potential
/// deadlock, with one witness chain per edge of the cycle.
pub fn lock_order(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let db = &ws.facts;
    let graph = &ws.graph;
    let nlocks = db.locks.len();
    if nlocks == 0 {
        return;
    }
    let trans = transitive_locks(db, graph);
    let mut direct = vec![0 as LockMask; db.functions.len()];
    for (i, f) in db.functions.iter().enumerate() {
        if graph.included[i] {
            for s in &f.lock_sites {
                if !s.exempt {
                    direct[i] |= mask_of(s.lock);
                }
            }
        }
    }

    // Edge map: (outer, inner) → first witness found, in deterministic
    // function order.
    let mut edges: BTreeMap<(usize, usize), Witness> = BTreeMap::new();
    for (fi, f) in db.functions.iter().enumerate() {
        if !graph.included[fi] {
            continue;
        }
        for (si, s) in f.lock_sites.iter().enumerate() {
            if s.exempt {
                continue;
            }
            for &h in &s.held {
                let o = &f.lock_sites[h];
                if o.exempt || o.lock == s.lock {
                    continue;
                }
                edges.entry((o.lock, s.lock)).or_insert(Witness::Direct {
                    func: fi,
                    outer: h,
                    inner: si,
                });
            }
        }
        for (ci, c) in f.calls.iter().enumerate() {
            if c.held.is_empty() {
                continue;
            }
            let targets = graph.call_targets[fi].get(ci).cloned().unwrap_or_default();
            for &t in &targets {
                let m = trans[t];
                for inner in 0..nlocks {
                    if m & mask_of(inner) == 0 {
                        continue;
                    }
                    for &h in &c.held {
                        let o = &f.lock_sites[h];
                        if o.exempt || o.lock == inner {
                            continue;
                        }
                        edges.entry((o.lock, inner)).or_insert(Witness::Trans {
                            func: fi,
                            outer: h,
                            call: ci,
                            target: t,
                            inner_lock: inner,
                        });
                    }
                }
            }
        }
    }

    // Lock-level reachability closure for SCC grouping (lock counts are
    // single digits; O(n³) is irrelevant).
    let mut reach = vec![0 as LockMask; nlocks];
    for &(a, b) in edges.keys() {
        reach[a] |= mask_of(b);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for a in 0..nlocks {
            let mut m = reach[a];
            for b in 0..nlocks {
                if reach[a] & mask_of(b) != 0 {
                    m |= reach[b];
                }
            }
            if m != reach[a] {
                reach[a] = m;
                changed = true;
            }
        }
    }

    // SCCs: a ~ b when each reaches the other. Report each component
    // once, keyed by its smallest lock.
    let mut reported = vec![false; nlocks];
    for a in 0..nlocks {
        if reported[a] || reach[a] & mask_of(a) == 0 {
            continue;
        }
        let scc: Vec<usize> = (0..nlocks)
            .filter(|&b| reach[a] & mask_of(b) != 0 && reach[b] & mask_of(a) != 0)
            .collect();
        for &b in &scc {
            reported[b] = true;
        }
        // Shortest deterministic cycle through the smallest lock: BFS
        // within the SCC from `a`, closed by the best predecessor edge
        // back to `a`.
        let mut dist: BTreeMap<usize, (usize, Vec<usize>)> = BTreeMap::new();
        dist.insert(a, (0, vec![a]));
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(a);
        while let Some(u) = queue.pop_front() {
            let (du, pu) = match dist.get(&u) {
                Some(v) => v.clone(),
                None => continue,
            };
            for &v in &scc {
                if v != a && edges.contains_key(&(u, v)) && !dist.contains_key(&v) {
                    let mut p = pu.clone();
                    p.push(v);
                    dist.insert(v, (du + 1, p));
                    queue.push_back(v);
                }
            }
        }
        let back = scc
            .iter()
            .filter(|&&u| edges.contains_key(&(u, a)) && dist.contains_key(&u))
            .min_by_key(|&&u| (dist.get(&u).map(|d| d.0).unwrap_or(usize::MAX), u));
        let Some(&back) = back else { continue };
        let mut cycle = dist.get(&back).map(|d| d.1.clone()).unwrap_or_default();
        cycle.push(a);

        let names: Vec<String> = cycle
            .iter()
            .map(|&l| format!("`{}`", db.locks[l].id()))
            .collect();
        let mut msg = format!(
            "lock-order cycle (potential deadlock): {}",
            names.join(" → ")
        );
        let mut anchor: Option<(String, usize)> = None;
        for pair in cycle.windows(2) {
            let Some(w) = edges.get(&(pair[0], pair[1])) else {
                continue;
            };
            if anchor.is_none() {
                anchor = Some(witness_anchor(db, w));
            }
            msg.push_str(&format!(
                "; witness `{}` → `{}`: {}",
                db.locks[pair[0]].id(),
                db.locks[pair[1]].id(),
                render_witness(ws, &direct, w)
            ));
        }
        let (file, line) =
            anchor.unwrap_or_else(|| (db.locks[a].file.clone(), db.locks[a].line + 1));
        out.push(Diagnostic {
            file,
            line,
            rule: "lock-order",
            message: msg,
        });
    }
}

/// Is `f` an artifact-classification entry point? (The exact shape of
/// the PR 7 race: classification work performed under a cache lock.)
fn is_classification(f: &FnFact) -> bool {
    f.name == "classify_bipartite"
        || (f.name == "build" && f.impl_type.as_deref() == Some("SchemaArtifacts"))
}

/// `blocking-under-lock`: no disk I/O and no artifact classification —
/// direct or reachable through calls — while any lock is held.
pub fn blocking_under_lock(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let db = &ws.facts;
    let graph = &ws.graph;
    let n = db.functions.len();

    // Which functions transitively reach a blocking site or a
    // classification entry point.
    let mut reaches = vec![false; n];
    for (i, f) in db.functions.iter().enumerate() {
        if graph.included[i] && (!f.blocking.is_empty() || is_classification(f)) {
            reaches[i] = true;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if reaches[i] {
                continue;
            }
            if graph.edges[i].iter().any(|e| reaches[e.callee]) {
                reaches[i] = true;
                changed = true;
            }
        }
    }
    let is_seed =
        |x: usize| !db.functions[x].blocking.is_empty() || is_classification(&db.functions[x]);

    for (fi, f) in db.functions.iter().enumerate() {
        if !graph.included[fi] {
            continue;
        }
        // Direct: a blocking site with a lock held.
        for s in &f.blocking {
            if s.exempt || s.held.is_empty() {
                continue;
            }
            let o = &f.lock_sites[s.held[0]];
            out.push(Diagnostic {
                file: f.file.clone(),
                line: s.line + 1,
                rule: "blocking-under-lock",
                message: format!(
                    "{} while `{}` is held (acquired at {}) — no disk I/O under a lock",
                    s.what,
                    db.locks[o.lock].id(),
                    loc(f, o.line)
                ),
            });
        }
        // Transitive: a call made under a lock into blocking territory.
        for (ci, c) in f.calls.iter().enumerate() {
            if c.held.is_empty() {
                continue;
            }
            if ws.allowed_at(&f.file, c.line, "blocking-under-lock") {
                continue;
            }
            let targets = graph.call_targets[fi].get(ci).cloned().unwrap_or_default();
            let Some(&t) = targets.iter().find(|&&t| reaches[t]) else {
                continue;
            };
            let o = &f.lock_sites[c.held[0]];
            let mut msg = format!(
                "call to `{}` ({}) while `{}` is held (acquired at {}) reaches blocking work",
                db.functions[t].display(),
                loc(f, c.line),
                db.locks[o.lock].id(),
                loc(f, o.line)
            );
            if let Some(path) = callgraph::path_to(graph, t, is_seed) {
                let mut parts: Vec<String> = Vec::new();
                for step in &path {
                    let sf = &db.functions[step.func];
                    match step.line_to_next {
                        Some(l) => parts.push(format!("`{}` ({})", sf.display(), loc(sf, l))),
                        None => {
                            let leaf = match sf.blocking.first() {
                                Some(b) => {
                                    format!("`{}` — {} ({})", sf.display(), b.what, loc(sf, b.line))
                                }
                                None => format!("`{}` — artifact classification", sf.display()),
                            };
                            parts.push(leaf);
                        }
                    }
                }
                msg.push_str(&format!(": {}", parts.join(" → ")));
            }
            out.push(Diagnostic {
                file: f.file.clone(),
                line: c.line + 1,
                rule: "blocking-under-lock",
                message: msg,
            });
        }
    }
}
