//! One-call Steiner/pseudo-Steiner solving with automatic algorithm
//! selection along the paper's complexity map. Every solve runs under
//! the [`SolverConfig`]'s [`SolveBudget`], walks a degradation ladder
//! (Exact → KMB heuristic → `Err`) instead of hanging on adversarial
//! instances, and is panic-isolated so a bug in one query cannot take
//! down a long-lived solver shared across sessions.

use crate::artifacts::SchemaArtifacts;
use crate::{
    algorithm1, algorithm2, steiner_exact_node_weighted_budgeted, steiner_kmb, tree_side_cost,
    SteinerTree,
};
use mcc_chordality::BipartiteClassification;
use mcc_graph::{
    BipartiteGraph, BudgetExceeded, BudgetKind, CancelToken, NodeSet, Side, SolveBudget, Stage,
    Workspace, WorkspaceStats,
};
use mcc_obs::{ClassLabel, SpanKind};
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

pub use crate::outcome::{Degraded, SolveError, SolveOutcome};
pub use mcc_obs::SolveTrace;

/// Which algorithm answered, and with what guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteinerStrategy {
    /// Algorithm 2 (Theorem 5) — optimal, polynomial; graph is
    /// (6,2)-chordal.
    Algorithm2,
    /// Algorithm 1 (Theorems 3–4) — side-optimal, polynomial; `H` of the
    /// witness side is α-acyclic.
    Algorithm1,
    /// Exact Dreyfus–Wagner — optimal, exponential in the terminal count.
    Exact,
    /// KMB heuristic — 2-approximate.
    Heuristic,
}

impl SteinerStrategy {
    /// Whether the strategy guarantees optimality for the cost it
    /// minimizes.
    pub fn optimal(self) -> bool {
        !matches!(self, SteinerStrategy::Heuristic)
    }
}

/// Workspace traffic and budget consumption observed during one solve
/// (deltas of the solver's long-lived [`Workspace`] counters, plus its
/// current scratch footprint). Algorithms 1 and 2 and the KMB heuristic
/// (its prune is Algorithm 2's sweep) account all their traversals here;
/// the exact DP runs outside the workspace, so an exact answer's
/// traversal deltas are zero — but `elapsed`/`budget_checks` cover every
/// route.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// BFS sweeps run through the solver's workspace during this solve.
    pub bfs_runs: u64,
    /// Elimination-candidate tests performed during this solve.
    pub elimination_steps: u64,
    /// Peak scratch footprint of the workspace, in bytes (buffers only
    /// grow, so the value after a solve is the peak so far).
    pub scratch_bytes: usize,
    /// Wall-clock time the solve consumed (including any ladder
    /// fallbacks — the ladder shares one clock).
    pub elapsed: Duration,
    /// Deadline consultations by the cooperative cancellation token (a
    /// measure of check traffic, one per `TICK_PERIOD` work units).
    pub budget_checks: u64,
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} BFS runs, {} elimination steps, {} scratch bytes, {:?} elapsed, {} budget checks",
            self.bfs_runs,
            self.elimination_steps,
            self.scratch_bytes,
            self.elapsed,
            self.budget_checks
        )
    }
}

/// A solved connection.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The connecting tree.
    pub tree: SteinerTree,
    /// The algorithm that produced it.
    pub strategy: SteinerStrategy,
    /// The minimized cost: total nodes for Steiner solves, side nodes for
    /// pseudo-Steiner solves.
    pub cost: usize,
    /// Workspace traffic and budget consumption (see [`SolveStats`]).
    pub stats: SolveStats,
    /// `Some` when the degradation ladder stepped down: the stage the
    /// solve was routed to and the budget verdict that forced the
    /// downgrade. `None` means the answer carries the routed strategy's
    /// full guarantee.
    pub degraded: Option<Degraded>,
    /// Where the solve spent its time, per tracing stage (MCS ordering
    /// vs. elimination vs. exact DP vs. KMB, …). All-zero when telemetry
    /// is disabled — see `mcc-obs`.
    pub trace: SolveTrace,
}

impl Solution {
    /// A solution as a route returns it; [`Solver`]'s boundary stamps the
    /// stats and the trace.
    fn new(
        tree: SteinerTree,
        strategy: SteinerStrategy,
        cost: usize,
        degraded: Option<Degraded>,
    ) -> Self {
        Solution {
            tree,
            strategy,
            cost,
            stats: SolveStats::default(),
            degraded,
            trace: SolveTrace::EMPTY,
        }
    }
}

/// Tuning knobs for the fallback chain.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Route to the exact solver when the terminal count is at most this
    /// (a *routing* preference — larger Steiner instances go straight to
    /// the heuristic without a `Degraded` mark; larger pseudo-Steiner
    /// instances with no Algorithm 1 route are refused with an
    /// `ExactTerminals` budget error).
    pub max_exact_terminals: usize,
    /// Resource limits for every solve (deadline, DP table bytes). The
    /// deadline spans the whole ladder: an exact attempt and its
    /// heuristic fallback share one clock.
    pub budget: SolveBudget,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_exact_terminals: 12,
            budget: SolveBudget::default(),
        }
    }
}

/// A prepared solver: classifies the graph once, then answers queries by
/// the strongest applicable algorithm.
///
/// The solver owns a [`Workspace`] (behind a `RefCell`, so the query
/// methods can stay `&self`): every polynomial-route solve shares one
/// set of scratch buffers, and repeated queries against
/// the same solver perform no steady-state allocation inside the
/// elimination loops. Per-solve traffic is reported as
/// [`Solution::stats`].
///
/// ## Governance
///
/// Every solve runs under [`SolverConfig::budget`]. On a budget trip in
/// the exact route the solver walks the degradation ladder — retry with
/// the KMB heuristic under the same (already partly consumed) deadline —
/// and marks the answer [`Solution::degraded`]. Panics in any route are
/// caught at this boundary: the shared workspace is poisoned, healed on
/// the next entry, and the caller receives [`SolveError::Internal`]
/// instead of an abort.
#[derive(Debug, Clone)]
pub struct Solver {
    artifacts: Arc<SchemaArtifacts>,
    config: SolverConfig,
    ws: RefCell<Workspace>,
}

impl Solver {
    /// Classifies `bg` and prepares a solver with default configuration.
    pub fn new(bg: BipartiteGraph) -> Self {
        Self::with_config(bg, SolverConfig::default())
    }

    /// Classifies `bg` with explicit configuration.
    pub fn with_config(bg: BipartiteGraph, config: SolverConfig) -> Self {
        // The recognizers free their scratch when the build returns; the
        // solver keeps only its query workspace.
        Self::from_artifacts(Arc::new(SchemaArtifacts::build(bg)), config)
    }

    /// Prepares a solver from **precomputed** schema artifacts — no
    /// classification or ordering work at all, just a workspace
    /// allocation. This is the warm-cache constructor: the engine's
    /// artifact cache builds one [`SchemaArtifacts`] per schema and
    /// every worker thread derives its own solver from the shared `Arc`.
    pub fn from_artifacts(artifacts: Arc<SchemaArtifacts>, config: SolverConfig) -> Self {
        let ws = Workspace::with_capacity(artifacts.bipartite().graph().node_count());
        Solver {
            artifacts,
            config,
            ws: RefCell::new(ws),
        }
    }

    /// The classification computed at construction.
    pub fn classification(&self) -> &BipartiteClassification {
        self.artifacts.classification()
    }

    /// The shared schema artifacts backing this solver.
    pub fn artifacts(&self) -> &Arc<SchemaArtifacts> {
        &self.artifacts
    }

    /// The graph.
    pub fn graph(&self) -> &BipartiteGraph {
        self.artifacts.bipartite()
    }

    /// The active configuration (budget included).
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solves the (node-count) Steiner problem: Algorithm 2 when the
    /// class allows, otherwise exact for small terminal sets, otherwise
    /// the heuristic — stepping down the ladder on budget trips.
    pub fn solve_steiner(&self, terminals: &NodeSet) -> Result<Solution, SolveError> {
        self.guarded(|token| self.solve_inner(terminals, None, token))
    }

    /// Solves the pseudo-Steiner problem w.r.t. `side`: Algorithm 1 when
    /// the corresponding hypergraph is α-acyclic, otherwise exact
    /// node-weighted Dreyfus–Wagner for small terminal sets, degrading to
    /// the (side-cost-oblivious) KMB tree on budget trips.
    pub fn solve_pseudo(&self, terminals: &NodeSet, side: Side) -> Result<Solution, SolveError> {
        self.guarded(|token| self.solve_inner(terminals, Some(side), token))
    }

    /// The panic-isolation and accounting boundary shared by the public
    /// solve methods: heal a poisoned workspace, **reset the per-solve
    /// stats counters**, start the budget clock, run the route under
    /// `catch_unwind`, stamp the full [`SolveStats`] on success, poison
    /// the workspace on panic.
    ///
    /// Resetting `Workspace::stats` here (rather than snapshotting
    /// inside each route) makes `Solution::stats` per-solve by
    /// construction: a route that touches the workspace cannot leak its
    /// traffic into the next solve's report, and a future route cannot
    /// forget its own snapshot. The workspace is solver-private, so the
    /// reset is invisible to everyone but this accounting.
    fn guarded<F>(&self, run: F) -> Result<Solution, SolveError>
    where
        F: FnOnce(&CancelToken) -> Result<Solution, SolveError>,
    {
        {
            let mut ws = self.ws.borrow_mut();
            if ws.is_poisoned() {
                ws.reset();
            }
            ws.stats = WorkspaceStats::default();
        }
        let token = self.config.budget.start();
        // Collect this solve's trace: spans that close on this thread
        // between here and the snapshot below are attributed to it.
        let _trace_guard = mcc_obs::trace::begin();
        // The workspace is epoch-stamped and the RefCell guard is dropped
        // during unwind, so catching here cannot observe a torn borrow —
        // only possibly-stale buffer contents, which `poison` flags for a
        // reset at the next entry.
        match catch_unwind(AssertUnwindSafe(|| {
            // The span closes inside the closure (ladder fallbacks
            // included), so it lands in the trace before the snapshot.
            let _span = mcc_obs::span!(SolveTotal);
            run(&token)
        })) {
            Ok(mut result) => {
                if let Ok(sol) = result.as_mut() {
                    let ws = self.ws.borrow();
                    sol.stats = SolveStats {
                        bfs_runs: ws.stats.bfs_runs,
                        elimination_steps: ws.stats.elimination_steps,
                        scratch_bytes: ws.scratch_bytes(),
                        elapsed: token.elapsed(),
                        budget_checks: token.checks(),
                    };
                    sol.trace = mcc_obs::trace::snapshot();
                    // Per-class solve histogram + ladder counter. The
                    // duration comes from the trace (the obs clock), so
                    // the whole telemetry story shares one seam.
                    mcc_obs::record_solve(
                        self.class_label(),
                        sol.trace.nanos(SpanKind::SolveTotal),
                    );
                    if sol.degraded.is_some() {
                        mcc_obs::global().record_degraded();
                    }
                }
                result
            }
            Err(payload) => {
                if let Ok(mut ws) = self.ws.try_borrow_mut() {
                    ws.poison();
                }
                Err(SolveError::Internal {
                    stage: Stage::Session,
                    detail: format!("solver panicked: {}", panic_message(&payload)),
                })
            }
        }
    }

    /// The one routing ladder. `side` is the objective: `None` minimizes
    /// every tree node (Steiner), `Some(s)` the nodes of side `s`
    /// (pseudo-Steiner). The in-class route is Algorithm 2 on (6,2)
    /// schemas for Steiner and Algorithm 1 along the cached Lemma 1
    /// ordering for pseudo-Steiner. Otherwise, up to the exact cap, the
    /// DP runs with unit or side-indicator weights, and a budget trip
    /// falls to KMB with a [`Degraded`] mark. Over the cap, Steiner goes
    /// to KMB undegraded and pseudo-Steiner is refused: KMB ignores the
    /// side cost, so it answers pseudo-Steiner only as a marked fallback.
    fn solve_inner(
        &self,
        terminals: &NodeSet,
        side: Option<Side>,
        token: &CancelToken,
    ) -> Result<Solution, SolveError> {
        let bg = self.graph();
        let g = bg.graph();
        // The minimized cost of a tree: every node, or the side's nodes.
        let cost_of = |tree: &SteinerTree| match side {
            None => tree.node_cost(),
            Some(side) => tree_side_cost(bg, tree, side),
        };
        match side {
            None if self.classification().six_two => {
                // The MCS scan order is a schema artifact: no per-solve
                // ordering work, just the elimination loop.
                let mut ws = self.ws.borrow_mut();
                let order = self.artifacts.elimination_order();
                let tree = algorithm2(&mut ws, g, terminals, order, token)?;
                let cost = cost_of(&tree);
                return Ok(Solution::new(tree, SteinerStrategy::Algorithm2, cost, None));
            }
            Some(side) => {
                if let Some(l1) = self.artifacts.lemma1(side) {
                    // The ordering is a schema artifact, borrowed: the
                    // per-solve cost is just the Step 2 elimination loop.
                    let mut ws = self.ws.borrow_mut();
                    let tree = algorithm1(&mut ws, bg, terminals, side, &l1.order, token)?;
                    let cost = cost_of(&tree);
                    return Ok(Solution::new(tree, SteinerStrategy::Algorithm1, cost, None));
                }
            }
            None => {}
        }
        let degraded = if terminals.len() > self.config.max_exact_terminals {
            if side.is_some() {
                return Err(SolveError::Budget(self.too_many_terminals(terminals.len())));
            }
            None
        } else {
            let weights: Vec<u64> = match side {
                None => vec![1; g.node_count()],
                Some(side) => g.nodes().map(|v| u64::from(bg.side(v) == side)).collect(),
            };
            let budget = &self.config.budget;
            match steiner_exact_node_weighted_budgeted(g, terminals, &weights, budget, token) {
                Ok(sol) => {
                    let cost = sol.cost as usize;
                    return Ok(Solution::new(sol.tree, SteinerStrategy::Exact, cost, None));
                }
                // The ladder: a budget trip in the exact route falls to
                // KMB under the same (partly consumed) clock.
                Err(SolveError::Budget(reason)) => Some(Degraded {
                    from: Stage::ExactDp,
                    reason,
                }),
                Err(e) => return Err(e),
            }
        };
        let tree = steiner_kmb(&mut self.ws.borrow_mut(), g, terminals, token)?;
        let cost = cost_of(&tree);
        Ok(Solution::new(
            tree,
            SteinerStrategy::Heuristic,
            cost,
            degraded,
        ))
    }

    /// The schema's chordality class as a metric label, most specific
    /// class first (the hierarchy is (4,1) ⊂ (6,2) ⊂ (6,1)).
    fn class_label(&self) -> ClassLabel {
        let c = self.classification();
        if c.four_one {
            ClassLabel::FourOne
        } else if c.six_two {
            ClassLabel::SixTwo
        } else if c.six_one {
            ClassLabel::SixOne
        } else {
            ClassLabel::OffClass
        }
    }

    /// The routing cap acts as a budget: report it in the same structured
    /// vocabulary as the cooperative checks.
    fn too_many_terminals(&self, observed: usize) -> BudgetExceeded {
        BudgetExceeded {
            stage: Stage::Session,
            kind: BudgetKind::ExactTerminals,
            limit: self.config.max_exact_terminals as u64,
            observed: observed as u64,
        }
    }
}

impl PartialEq for Solution {
    /// Solutions compare by tree, strategy, and cost.
    fn eq(&self, other: &Self) -> bool {
        self.tree == other.tree && self.strategy == other.strategy && self.cost == other.cost
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// The textbook KMB, shared with `tests/kmb_differential.rs`.
#[cfg(test)]
#[path = "../tests/support/kmb_oracle.rs"]
mod kmb_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_gen::{random_six_two_block_tree, random_terminals};
    use mcc_graph::bipartite::bipartite_from_lists;
    use mcc_graph::NodeId;

    #[test]
    fn six_two_graphs_use_algorithm2() {
        let bg = random_six_two_block_tree(Default::default(), 1);
        let terminals = random_terminals(bg.graph(), None, 3, 2);
        let solver = Solver::new(bg);
        let sol = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(sol.strategy, SteinerStrategy::Algorithm2);
        assert!(sol.tree.is_valid_tree(solver.graph().graph()));
        assert!(terminals.is_subset_of(&sol.tree.nodes));
        assert!(sol.degraded.is_none());
    }

    #[test]
    fn off_class_small_instances_use_exact() {
        // A chordless 6-cycle: not (6,2).
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        let n = bg.graph().node_count();
        let terminals = NodeSet::from_nodes(n, [mcc_graph::NodeId(0), mcc_graph::NodeId(1)]);
        let solver = Solver::new(bg);
        let sol = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(sol.strategy, SteinerStrategy::Exact);
        assert_eq!(sol.cost, 3);
        assert!(sol.degraded.is_none());
    }

    #[test]
    fn pseudo_dispatches_to_algorithm1() {
        let (_, bg) = mcc_gen::random_alpha_acyclic(Default::default(), 4);
        let v1 = bg.v1_set();
        let terminals = random_terminals(bg.graph(), Some(&v1), 2, 3);
        let solver = Solver::new(bg);
        match solver.solve_pseudo(&terminals, Side::V2) {
            Ok(sol) => assert_eq!(sol.strategy, SteinerStrategy::Algorithm1),
            Err(SolveError::Disconnected) => {} // terminals may span components
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn pseudo_falls_back_to_exact_off_class() {
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        let n = bg.graph().node_count();
        let terminals = NodeSet::from_nodes(n, [mcc_graph::NodeId(0), mcc_graph::NodeId(2)]);
        let solver = Solver::new(bg);
        let sol = solver.solve_pseudo(&terminals, Side::V2).unwrap();
        assert_eq!(sol.strategy, SteinerStrategy::Exact);
        assert_eq!(sol.cost, 1); // one relation suffices on the cycle
    }

    #[test]
    fn polynomial_routes_report_workspace_traffic() {
        let bg = random_six_two_block_tree(Default::default(), 1);
        let terminals = random_terminals(bg.graph(), None, 3, 2);
        let solver = Solver::new(bg);
        let first = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(first.strategy, SteinerStrategy::Algorithm2);
        assert!(first.stats.bfs_runs > 0, "Algorithm 2 must run BFS sweeps");
        assert!(first.stats.elimination_steps > 0);
        assert!(first.stats.scratch_bytes > 0);
        // Deltas reset per solve: a repeat query reports its own traffic,
        // not the running total, and the footprint has stabilized.
        let second = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(second.stats.bfs_runs, first.stats.bfs_runs);
        assert_eq!(
            second.stats.elimination_steps,
            first.stats.elimination_steps
        );
        assert_eq!(second.stats.scratch_bytes, first.stats.scratch_bytes);
        let display = format!("{}", first.stats);
        assert!(display.contains("BFS runs"), "{display}");
        assert!(display.contains("budget checks"), "{display}");
    }

    #[test]
    fn stats_reset_per_solve_not_accumulated() {
        // Regression: counters must reset at solve entry. A query issued
        // after an unrelated (larger) solve must report exactly what the
        // same query reports on a fresh solver — not the running total of
        // both solves.
        let bg = random_six_two_block_tree(Default::default(), 7);
        let small = random_terminals(bg.graph(), None, 2, 11);
        let large = random_terminals(bg.graph(), None, 5, 13);
        let fresh = Solver::new(bg.clone()).solve_steiner(&small).unwrap();
        let solver = Solver::new(bg);
        solver.solve_steiner(&large).unwrap();
        let after = solver.solve_steiner(&small).unwrap();
        assert_eq!(after.stats.bfs_runs, fresh.stats.bfs_runs);
        assert_eq!(after.stats.elimination_steps, fresh.stats.elimination_steps);
    }

    #[test]
    fn warm_artifacts_solver_matches_cold() {
        // A solver built from pre-shared artifacts must return the same
        // answers as one that built them itself.
        let bg = random_six_two_block_tree(Default::default(), 3);
        let artifacts = std::sync::Arc::new(crate::SchemaArtifacts::build(bg.clone()));
        let cold = Solver::new(bg.clone());
        let warm = Solver::from_artifacts(artifacts, SolverConfig::default());
        for seed in 0..5 {
            let terminals = random_terminals(bg.graph(), None, 3, seed);
            assert_eq!(
                cold.solve_steiner(&terminals),
                warm.solve_steiner(&terminals)
            );
            assert_eq!(
                cold.solve_pseudo(&terminals, Side::V2),
                warm.solve_pseudo(&terminals, Side::V2)
            );
        }
    }

    #[test]
    fn disconnected_reported() {
        let bg = bipartite_from_lists(&["a", "b"], &["r", "s"], &[(0, 0), (1, 1)]);
        let n = bg.graph().node_count();
        let terminals = NodeSet::from_nodes(n, [mcc_graph::NodeId(0), mcc_graph::NodeId(1)]);
        let solver = Solver::new(bg);
        assert_eq!(
            solver.solve_steiner(&terminals),
            Err(SolveError::Disconnected)
        );
        assert_eq!(
            solver.solve_pseudo(&terminals, Side::V2),
            Err(SolveError::Disconnected)
        );
    }

    #[test]
    fn heuristic_gate() {
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        let n = bg.graph().node_count();
        let terminals = NodeSet::from_nodes(n, [mcc_graph::NodeId(0), mcc_graph::NodeId(1)]);
        let cfg = SolverConfig {
            max_exact_terminals: 0,
            ..SolverConfig::default()
        };
        let solver = Solver::with_config(bg, cfg);
        // H¹ is a triangle, so the pseudo route has no Algorithm 1 and no
        // heuristic: the routing cap is reported in the budget vocabulary.
        match solver.solve_pseudo(&terminals, Side::V2) {
            Err(SolveError::Budget(b)) => {
                assert_eq!(b.kind, BudgetKind::ExactTerminals);
                assert_eq!((b.limit, b.observed), (0, 2));
            }
            other => panic!("expected a terminal-cap budget error, got {other:?}"),
        }
        let sol = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(sol.strategy, SteinerStrategy::Heuristic);
        // Routed (not degraded): k exceeded the routing preference, no
        // budget tripped.
        assert!(sol.degraded.is_none());
    }

    /// The exact route's terminal cap is the router's, not the budget's:
    /// on a 92-node off-class graph under a 150 kB DP cap, seven
    /// terminals go to the exact DP, while eight go straight to KMB with
    /// no `Degraded` mark, although their tables (141 kB) would fit.
    #[test]
    fn eight_terminals_over_a_routing_cap_of_seven_go_to_kmb_undegraded() {
        // A chordless 92-cycle x0 y0 x1 y1 … x45 y45: not even (6,1).
        let xs: Vec<String> = (0..46).map(|i| format!("x{i}")).collect();
        let ys: Vec<String> = (0..46).map(|i| format!("y{i}")).collect();
        let xs: Vec<&str> = xs.iter().map(String::as_str).collect();
        let ys: Vec<&str> = ys.iter().map(String::as_str).collect();
        let edges: Vec<(usize, usize)> =
            (0..46).flat_map(|i| [(i, i), ((i + 1) % 46, i)]).collect();
        let bg = bipartite_from_lists(&xs, &ys, &edges);
        let n = bg.graph().node_count();
        assert_eq!(n, 92);
        let cfg = SolverConfig {
            max_exact_terminals: 7,
            budget: SolveBudget {
                max_dp_bytes: 150_000,
                ..SolveBudget::default()
            },
        };
        assert!(mcc_graph::budget::dp_table_bytes(8, n) <= cfg.budget.max_dp_bytes);
        let solver = Solver::with_config(bg, cfg);
        assert!(!solver.classification().six_two);
        let spread = |k: u32| NodeSet::from_nodes(n, (0..k).map(|i| mcc_graph::NodeId(i * 5)));

        let sol = solver.solve_steiner(&spread(7)).unwrap();
        assert_eq!(sol.strategy, SteinerStrategy::Exact);
        assert!(sol.degraded.is_none());

        let terminals = spread(8);
        let sol = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(sol.strategy, SteinerStrategy::Heuristic);
        assert!(sol.degraded.is_none(), "routed, not degraded");
        assert!(terminals.is_subset_of(&sol.tree.nodes));
    }

    /// An off-class Steiner solve over the exact cap goes to KMB, whose
    /// prune runs on the solver's workspace: the answer's stats count
    /// its elimination steps, and a repeat query reports the same.
    #[test]
    fn kmb_answer_reports_its_prune_traffic() {
        let bg = mcc_gen::random_bipartite(40, 40, 0.1, 3);
        let g = bg.graph();
        let reach =
            mcc_graph::component_of(g, &NodeSet::full(g.node_count()), mcc_graph::NodeId(0));
        let terminals = random_terminals(g, Some(&reach), 9, 5);
        let cfg = SolverConfig {
            max_exact_terminals: 7,
            ..SolverConfig::default()
        };
        let solver = Solver::with_config(bg, cfg);
        assert!(!solver.classification().six_two);
        let first = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(first.strategy, SteinerStrategy::Heuristic);
        assert!(first.degraded.is_none(), "routed, not degraded");
        assert!(first.stats.elimination_steps > 0);
        assert!(first.stats.scratch_bytes > 0);
        let second = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(second.tree, first.tree);
        assert_eq!(second.stats.bfs_runs, first.stats.bfs_runs);
        assert_eq!(
            second.stats.elimination_steps,
            first.stats.elimination_steps
        );
    }

    #[test]
    fn dp_budget_trip_degrades_to_heuristic() {
        // Off-class graph, terminal count within the routing cap, but a
        // DP byte budget far too small for the table: the ladder must
        // fall to KMB and mark the answer degraded.
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        let n = bg.graph().node_count();
        let terminals = NodeSet::from_nodes(n, [mcc_graph::NodeId(0), mcc_graph::NodeId(1)]);
        let cfg = SolverConfig {
            budget: SolveBudget {
                max_dp_bytes: 0,
                ..SolveBudget::default()
            },
            ..SolverConfig::default()
        };
        let solver = Solver::with_config(bg, cfg);
        let sol = solver.solve_steiner(&terminals).unwrap();
        assert_eq!(sol.strategy, SteinerStrategy::Heuristic);
        let d = sol.degraded.expect("must record the downgrade");
        assert_eq!(d.from, Stage::ExactDp);
        assert_eq!(d.reason.kind, BudgetKind::DpTableBytes);
        assert!(terminals.is_subset_of(&sol.tree.nodes));
    }

    /// Both ways off the ladder onto KMB return the oracle's tree, with
    /// one `Kmb` span and one `Algorithm2` span (the pruning) in their
    /// traces: nine terminals over a routing cap of seven, and nine
    /// terminals under the default cap whose DP tables the byte cap
    /// refuses.
    #[test]
    fn ladder_to_kmb_returns_the_oracle_tree_and_traces_its_prune() {
        let bg = mcc_gen::random_bipartite(40, 40, 0.1, 3);
        let g = bg.graph();
        let n = g.node_count();
        let reach = mcc_graph::component_of(g, &NodeSet::full(n), mcc_graph::NodeId(0));
        let terminals = random_terminals(g, Some(&reach), 9, 5);
        let oracle = kmb_oracle::steiner_kmb(g, &terminals).unwrap();

        let routed = Solver::with_config(
            bg.clone(),
            SolverConfig {
                max_exact_terminals: 7,
                ..SolverConfig::default()
            },
        );
        assert!(!routed.classification().six_two);
        let refused = Solver::with_config(
            bg,
            SolverConfig {
                budget: SolveBudget {
                    max_dp_bytes: 150_000,
                    ..SolveBudget::default()
                },
                ..SolverConfig::default()
            },
        );
        assert!(mcc_graph::budget::dp_table_bytes(9, n) > 150_000);

        let sol = routed.solve_steiner(&terminals).unwrap();
        assert_eq!(sol.strategy, SteinerStrategy::Heuristic);
        assert!(sol.degraded.is_none(), "routed, not degraded");
        assert_eq!(sol.tree, oracle);
        let degraded = refused.solve_steiner(&terminals).unwrap();
        assert_eq!(degraded.strategy, SteinerStrategy::Heuristic);
        let d = degraded.degraded.expect("must record the downgrade");
        assert_eq!(d.from, Stage::ExactDp);
        assert_eq!(d.reason.kind, BudgetKind::DpTableBytes);
        assert_eq!(degraded.tree, oracle);
        for trace in [sol.trace, degraded.trace] {
            assert_eq!(trace.count(SpanKind::Kmb), 1);
            assert_eq!(trace.count(SpanKind::Algorithm2), 1);
        }
    }

    /// A terminal set over `n + 1` nodes is refused, before any work,
    /// with a typed error naming the route's stage: no route panics or
    /// answers. The next correct solve on that solver reports the same
    /// tree and the same per-solve stats as a fresh solver's.
    #[test]
    fn wrong_terminal_universe_is_refused_on_every_route() {
        let six_two = random_six_two_block_tree(Default::default(), 1);
        let (_, alpha) = mcc_gen::random_alpha_acyclic(Default::default(), 4);
        let c6 = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        let over_cap = SolverConfig {
            max_exact_terminals: 0,
            ..SolverConfig::default()
        };
        let default = SolverConfig::default();
        let cases = [
            (six_two, None, default, Stage::Algorithm2),
            (alpha, Some(Side::V2), default, Stage::Algorithm1),
            (c6.clone(), None, default, Stage::ExactDp),
            (c6, None, over_cap, Stage::Heuristic),
        ];
        for (bg, side, config, stage) in cases {
            let solve = |solver: &Solver, terminals: &NodeSet| match side {
                None => solver.solve_steiner(terminals),
                Some(side) => solver.solve_pseudo(terminals, side),
            };
            let g = bg.graph();
            let n = g.node_count();
            let reach = mcc_graph::component_of(g, &NodeSet::full(n), mcc_graph::NodeId(0));
            let terminals = random_terminals(g, Some(&reach), 2, 9);
            let wide = NodeSet::from_nodes(n + 1, terminals.iter().chain([NodeId::from_index(n)]));
            let solver = Solver::with_config(bg.clone(), config);
            match solve(&solver, &wide) {
                Err(SolveError::Internal { stage: at, detail }) => {
                    assert_eq!(at, stage);
                    assert!(!detail.starts_with("solver panicked"), "{detail}");
                }
                other => panic!("{stage}: expected a typed refusal, got {other:?}"),
            }
            let after = solve(&solver, &terminals).unwrap();
            let fresh = solve(&Solver::with_config(bg, config), &terminals).unwrap();
            assert_eq!(after, fresh);
            let counters = |s: SolveStats| {
                (
                    s.bfs_runs,
                    s.elimination_steps,
                    s.scratch_bytes,
                    s.budget_checks,
                )
            };
            assert_eq!(counters(after.stats), counters(fresh.stats), "{stage}");
        }
    }

    #[test]
    fn stats_report_budget_consumption() {
        let bg = random_six_two_block_tree(Default::default(), 1);
        let terminals = random_terminals(bg.graph(), None, 3, 2);
        let cfg = SolverConfig {
            budget: SolveBudget::with_deadline(Duration::from_secs(60)),
            ..SolverConfig::default()
        };
        let solver = Solver::with_config(bg, cfg);
        let sol = solver.solve_steiner(&terminals).unwrap();
        // At least the stage-boundary checkpoint ran, and some time passed.
        assert!(sol.stats.budget_checks >= 1);
        assert!(sol.stats.elapsed > Duration::ZERO);
    }
}
