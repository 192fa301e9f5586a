//! Answer verification. Every `Ok` answer is checked as a tree of the
//! schema graph that spans the terminals at its reported cost; repeats
//! of a request must return the same answer; after the timed phase every
//! distinct answer is compared with a direct `Solver` run, and a
//! seed-determined head of the stream with the exact optimum.

use crate::inputs::{Inputs, SUBSAMPLE};
use mcc::datamodel::Strategy;
use mcc::graph::{BipartiteGraph, BudgetKind, NodeSet, Side};
use mcc::steiner::{steiner_exact, steiner_exact_node_weighted, SteinerInstance, SteinerTree};
use mcc::{Degraded, SchemaArtifacts, Solver, SolverConfig, SteinerStrategy};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    Algorithm2,
    Algorithm1,
    Exact,
    Heuristic,
}

impl Route {
    pub const ALL: [Route; 4] = [
        Route::Algorithm2,
        Route::Algorithm1,
        Route::Exact,
        Route::Heuristic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::Algorithm2 => "algorithm2",
            Route::Algorithm1 => "algorithm1",
            Route::Exact => "exact",
            Route::Heuristic => "heuristic",
        }
    }

    pub fn of_solver(s: SteinerStrategy) -> Route {
        match s {
            SteinerStrategy::Algorithm2 => Route::Algorithm2,
            SteinerStrategy::Algorithm1 => Route::Algorithm1,
            SteinerStrategy::Exact => Route::Exact,
            SteinerStrategy::Heuristic => Route::Heuristic,
        }
    }

    pub fn of_datamodel(s: Strategy) -> Route {
        match s {
            Strategy::Algorithm2 => Route::Algorithm2,
            Strategy::Algorithm1 => Route::Algorithm1,
            Strategy::Exact => Route::Exact,
            Strategy::Heuristic => Route::Heuristic,
        }
    }
}

/// Graphs of every schema version and the terminals of every pooled
/// request, resolved once (the perturbed variant keeps every label and
/// node id, only relation membership changes).
pub struct Versions {
    /// `graphs[2 * schema + variant]`, variant 1 being the perturbed one.
    pub graphs: Vec<BipartiteGraph>,
    pub terminals: Vec<NodeSet>,
}

impl Versions {
    pub fn new(inputs: &Inputs) -> Versions {
        let mut graphs = Vec::with_capacity(2 * inputs.schemas.len());
        for spec in &inputs.schemas {
            graphs.push(spec.schema.to_bipartite().expect("valid schema"));
            graphs.push(spec.perturbed.to_bipartite().expect("valid schema"));
        }
        let terminals = inputs
            .pool
            .iter()
            .map(|r| {
                let g = graphs[2 * r.schema].graph();
                let mut t = NodeSet::new(g.node_count());
                for o in &r.objects {
                    t.insert(g.node_by_label(o).expect("pooled names exist"));
                }
                t
            })
            .collect();
        Versions { graphs, terminals }
    }
}

/// The cost an answer must report: all tree nodes, or only its relation
/// (`V2`) nodes for a pseudo-Steiner request.
pub fn side_cost(bg: &BipartiteGraph, tree: &SteinerTree, pseudo: bool) -> usize {
    if pseudo {
        tree.nodes
            .iter()
            .filter(|&v| bg.side(v) == Side::V2)
            .count()
    } else {
        tree.nodes.len()
    }
}

/// `tree` is a connected subtree of the schema graph containing every
/// terminal, and `cost` is its node (or relation) count.
pub fn check_tree(
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    tree: &SteinerTree,
    cost: usize,
    pseudo: bool,
) -> Result<(), String> {
    let g = bg.graph();
    if !terminals.is_subset_of(&tree.nodes) {
        return Err("tree misses a terminal".into());
    }
    let n = tree.nodes.len();
    if n > 0 && tree.edges.len() != n - 1 {
        return Err(format!("{} nodes but {} edges", n, tree.edges.len()));
    }
    let mut parent: Vec<usize> = (0..g.node_count()).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    for &(a, b) in &tree.edges {
        if !tree.nodes.contains(a) || !tree.nodes.contains(b) || !g.has_edge(a, b) {
            return Err(format!(
                "edge {a:?}-{b:?} is not a schema edge inside the tree"
            ));
        }
        let (ra, rb) = (find(&mut parent, a.index()), find(&mut parent, b.index()));
        if ra == rb {
            return Err("tree edges close a cycle".into());
        }
        parent[ra] = rb;
    }
    if let Some(first) = tree.nodes.first() {
        let root = find(&mut parent, first.index());
        if tree
            .nodes
            .iter()
            .any(|v| find(&mut parent, v.index()) != root)
        {
            return Err("tree is disconnected".into());
        }
    }
    let expected = side_cost(bg, tree, pseudo);
    if cost != expected {
        return Err(format!("reported cost {cost}, tree costs {expected}"));
    }
    Ok(())
}

/// The exact optimum of a pooled request on one schema version.
pub fn exact_optimum(bg: &BipartiteGraph, terminals: &NodeSet, pseudo: bool) -> usize {
    let g = bg.graph();
    let cost = if pseudo {
        let w: Vec<u64> = g
            .nodes()
            .map(|v| u64::from(bg.side(v) == Side::V2))
            .collect();
        steiner_exact_node_weighted(g, terminals, &w).map(|s| s.cost)
    } else {
        steiner_exact(&SteinerInstance::new(g.clone(), terminals.clone())).map(|s| s.cost)
    };
    cost.expect("generated schemas are connected") as usize
}

struct Seen {
    route: Route,
    cost: usize,
    degraded: Option<BudgetKind>,
    nodes: NodeSet,
    /// Answers equal to the first one.
    answers: u64,
    bad: bool,
}

/// The quantities that are functions of the seed and must repeat
/// exactly between two runs of the same operation count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Repeat {
    pub attempted: u64,
    pub routes: [u64; 4],
    pub guaranteed: u64,
    pub degraded: u64,
    pub dp_refusals: u64,
    pub elimination_steps: u64,
    pub bfs_runs: u64,
    pub head_cost: u64,
}

/// Bookkeeping for every answer of one phase.
pub struct Ledger {
    pub repeat: Repeat,
    pub errors: u64,
    mismatched: u64,
    seen: BTreeMap<(u32, u32), Seen>,
    head: Vec<(u32, u32)>,
    pub problems: Vec<String>,
}

/// What verification concluded about a phase.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub attempted: u64,
    pub ok: u64,
    pub guaranteed: u64,
    pub cost_ratio: f64,
    pub head_reference: u64,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            repeat: Repeat::default(),
            errors: 0,
            mismatched: 0,
            seen: BTreeMap::new(),
            head: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < 8 {
            self.problems.push(p);
        }
    }

    /// A request that failed: an error, a rejection or a lost ticket.
    pub fn failed(&mut self, pool: u32, what: String) {
        self.repeat.attempted += 1;
        self.errors += 1;
        self.problem(format!("request {pool}: {what}"));
    }

    /// One `Ok` answer to pool entry `pool`, sent as operation `op`, on
    /// schema version `version`.
    #[allow(clippy::too_many_arguments)]
    pub fn answer(
        &mut self,
        versions: &Versions,
        inputs: &Inputs,
        op: u64,
        version: u32,
        pool: u32,
        tree: &SteinerTree,
        route: Route,
        cost: usize,
        degraded: Option<&Degraded>,
        steps: Option<(u64, u64)>,
    ) {
        let r = &mut self.repeat;
        r.attempted += 1;
        r.routes[route as usize] += 1;
        let degraded = degraded.map(|d| d.reason.kind);
        if let Some(kind) = degraded {
            r.degraded += 1;
            if kind == BudgetKind::DpTableBytes {
                r.dp_refusals += 1;
            }
        } else if route != Route::Heuristic {
            r.guaranteed += 1;
        }
        if let Some((elim, bfs)) = steps {
            r.elimination_steps += elim;
            r.bfs_runs += bfs;
        }
        // The head is chosen by operation index, not arrival order, so it
        // is the same set whichever worker answers first.
        if op < SUBSAMPLE as u64 {
            self.head.push((version, pool));
            r.head_cost += cost as u64;
        }
        if let Some(seen) = self.seen.get_mut(&(version, pool)) {
            if seen.route == route
                && seen.cost == cost
                && seen.degraded == degraded
                && seen.nodes == tree.nodes
            {
                seen.answers += 1;
            } else {
                self.mismatched += 1;
                self.problem(format!("request {pool}: repeat answer differs"));
            }
            return;
        }
        let bg = &versions.graphs[version as usize];
        let pseudo = inputs.pool[pool as usize].pseudo;
        let checked = check_tree(bg, &versions.terminals[pool as usize], tree, cost, pseudo);
        if let Err(why) = &checked {
            self.problem(format!("request {pool} on version {version}: {why}"));
        }
        self.seen.insert(
            (version, pool),
            Seen {
                route,
                cost,
                degraded,
                nodes: tree.nodes.clone(),
                answers: 1,
                bad: checked.is_err(),
            },
        );
    }

    /// Compares every distinct answer with a direct `Solver` run and the
    /// head of the stream with the exact optimum. Runs after the timed
    /// phase.
    pub fn finish(
        &mut self,
        inputs: &Inputs,
        versions: &Versions,
        config: SolverConfig,
    ) -> Verdict {
        let by_version: BTreeSet<u32> = self.seen.keys().map(|&(v, _)| v).collect();
        for version in by_version {
            let bg = versions.graphs[version as usize].clone();
            let solver = Solver::from_artifacts(Arc::new(SchemaArtifacts::build(bg)), config);
            let keys: Vec<(u32, u32)> = self
                .seen
                .range((version, 0)..=(version, u32::MAX))
                .map(|(&k, _)| k)
                .collect();
            for key in keys {
                let (route, cost) = {
                    let t = &versions.terminals[key.1 as usize];
                    let reference = if inputs.pool[key.1 as usize].pseudo {
                        solver.solve_pseudo(t, Side::V2)
                    } else {
                        solver.solve_steiner(t)
                    };
                    match reference {
                        Ok(s) => (Route::of_solver(s.strategy), s.cost),
                        Err(e) => {
                            self.problem(format!("reference solve failed: {e}"));
                            self.seen.get_mut(&key).expect("listed").bad = true;
                            continue;
                        }
                    }
                };
                let seen = self.seen.get(&key).expect("listed");
                if seen.route != route || seen.cost != cost {
                    let msg = format!(
                        "request {} on version {}: answered {:?}/{} but a direct Solver gives {:?}/{}",
                        key.1, key.0, seen.route, seen.cost, route, cost
                    );
                    self.problem(msg);
                    self.seen.get_mut(&key).expect("listed").bad = true;
                }
            }
        }
        let mut reference_sum = 0u64;
        let head = self.head.clone();
        for (version, pool) in head {
            let bg = &versions.graphs[version as usize];
            let pseudo = inputs.pool[pool as usize].pseudo;
            let optimum = exact_optimum(bg, &versions.terminals[pool as usize], pseudo);
            reference_sum += optimum as u64;
            let seen = self
                .seen
                .get(&(version, pool))
                .expect("head answers are seen");
            let guaranteed = seen.route != Route::Heuristic && seen.degraded.is_none();
            if seen.cost < optimum || (guaranteed && seen.cost != optimum) {
                let msg = format!(
                    "request {pool}: {:?} answered {} but the optimum is {optimum}",
                    seen.route, seen.cost
                );
                self.problem(msg);
                self.seen.get_mut(&(version, pool)).expect("listed").bad = true;
            }
        }
        let wrong: u64 = self.mismatched
            + self
                .seen
                .values()
                .filter(|s| s.bad)
                .map(|s| s.answers)
                .sum::<u64>();
        let r = &self.repeat;
        Verdict {
            attempted: r.attempted,
            ok: r.attempted - self.errors - wrong,
            guaranteed: r.guaranteed,
            cost_ratio: r.head_cost as f64 / reference_sum.max(1) as f64,
            head_reference: reference_sum,
        }
    }
}
