//! Robustness of the governed solver: degenerate terminal sets, budget
//! trips, the degradation ladder, and a never-panic property sweep.
//!
//! These tests pin the contract of the resource-governance layer: every
//! failure is a typed [`mcc::SolveError`] value, a tripped exact attempt
//! degrades to the heuristic inside the same deadline, and no input —
//! however degenerate — unwinds out of `Solver`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "the deadline tests time the solver against the wall clock"
)]

use mcc::prelude::*;
use mcc::{BudgetKind, SolverConfig};
use mcc_gen::{random_bipartite, random_six_two_block_tree, random_terminals};
use mcc_graph::bipartite::bipartite_from_lists;
use mcc_graph::{connected_components, NodeId};
use mcc_steiner::is_steiner_tree_for;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// An off-class instance: a 4-cycle in the bipartite graph (C8 as a
/// graph) is not (6,2)-chordal, so the solver routes past Algorithm 2.
fn off_class() -> BipartiteGraph {
    bipartite_from_lists(
        &["a", "b", "c", "d"],
        &["R", "S", "T", "U"],
        &[
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 1),
            (2, 2),
            (3, 2),
            (3, 3),
            (0, 3),
        ],
    )
}

#[test]
fn empty_terminal_set_solves_trivially_on_every_route() {
    for solver in [
        Solver::new(random_six_two_block_tree(Default::default(), 1)),
        Solver::new(off_class()),
    ] {
        let n = solver.graph().graph().node_count();
        let sol = solver.solve_steiner(&NodeSet::new(n)).expect("empty query");
        assert_eq!(sol.cost, 0);
        assert!(sol.tree.edges.is_empty());
        assert!(sol.degraded.is_none());
    }
}

#[test]
fn single_terminal_is_its_own_connection() {
    for solver in [
        Solver::new(random_six_two_block_tree(Default::default(), 2)),
        Solver::new(off_class()),
    ] {
        let n = solver.graph().graph().node_count();
        let terminals = NodeSet::from_nodes(n, [NodeId(0)]);
        let sol = solver.solve_steiner(&terminals).expect("single terminal");
        assert_eq!(sol.cost, 1);
        assert!(sol.tree.nodes.contains(NodeId(0)));
    }
}

#[test]
fn disconnected_terminals_are_a_typed_error_not_a_panic() {
    // Two disjoint attribute/relation pairs.
    let bg = bipartite_from_lists(&["a", "b"], &["R", "S"], &[(0, 0), (1, 1)]);
    let n = bg.graph().node_count();
    let solver = Solver::new(bg);
    let terminals = NodeSet::from_nodes(n, [NodeId(0), NodeId(1)]);
    assert_eq!(
        solver.solve_steiner(&terminals).unwrap_err(),
        SolveError::Disconnected
    );
    assert_eq!(
        solver.solve_pseudo(&terminals, Side::V2).unwrap_err(),
        SolveError::Disconnected
    );
}

#[test]
fn duplicate_terminals_collapse_into_the_set() {
    let solver = Solver::new(off_class());
    let n = solver.graph().graph().node_count();
    // NodeSet semantics: inserting a node twice is the same terminal set.
    let once = NodeSet::from_nodes(n, [NodeId(0), NodeId(2)]);
    let twice = NodeSet::from_nodes(n, [NodeId(0), NodeId(2), NodeId(0), NodeId(2)]);
    assert_eq!(once, twice);
    let a = solver.solve_steiner(&once).expect("connected");
    let b = solver.solve_steiner(&twice).expect("connected");
    assert_eq!(a.cost, b.cost);
}

#[test]
fn every_node_as_terminal_spans_the_graph() {
    for solver in [
        Solver::new(random_six_two_block_tree(Default::default(), 3)),
        Solver::new(off_class()),
    ] {
        let g = solver.graph().graph().clone();
        let n = g.node_count();
        let all = NodeSet::full(n);
        if connected_components(&g, &all).len() > 1 {
            assert_eq!(
                solver.solve_steiner(&all).unwrap_err(),
                SolveError::Disconnected
            );
            continue;
        }
        let sol = solver
            .solve_steiner(&all)
            .expect("connected spanning solve");
        assert_eq!(sol.cost, n, "a spanning connection uses every node");
        assert!(is_steiner_tree_for(&g, &sol.tree, &all));
    }
}

/// The acceptance scenario's mechanism, parameterized by scale: k=24
/// random terminals on an off-class graph under a 100 ms budget. The
/// exact route's DP table projection (2^24 masks × n nodes) trips the
/// byte cap during admission — microseconds, not minutes — and the
/// ladder hands the remaining deadline to the heuristic, which answers
/// in time. Only the *solve* is budgeted; the caller pays the one-time
/// classification at `Solver` construction.
fn assert_degrades_under_100ms_budget(n_side: usize, p: f64, seed: u64) {
    let bg = random_bipartite(n_side, n_side, p, seed);
    let g = bg.graph().clone();
    assert!(g.node_count() >= 2 * n_side);
    let solver = Solver::with_config(
        bg,
        SolverConfig {
            max_exact_terminals: 24,
            budget: SolveBudget::with_deadline(Duration::from_millis(100)),
        },
    );
    assert!(
        !solver.classification().six_two,
        "instance must be off-class so the exact route is attempted"
    );
    // Keep the query feasible: draw terminals from the largest component.
    let component = connected_components(&g, &NodeSet::full(g.node_count()))
        .into_iter()
        .max_by_key(|c| c.len())
        .expect("nonempty graph");
    assert!(component.len() >= 24, "giant component expected");
    let terminals = random_terminals(&g, Some(&component), 24, 7);
    assert_eq!(terminals.len(), 24);

    let t0 = Instant::now();
    let sol = solver
        .solve_steiner(&terminals)
        .expect("must degrade, not fail");
    let took = t0.elapsed();

    assert_eq!(sol.strategy, SteinerStrategy::Heuristic);
    let d = sol
        .degraded
        .expect("exact attempt must be recorded as degraded");
    assert_eq!(d.from, mcc::Stage::ExactDp);
    assert_eq!(d.reason.kind, BudgetKind::DpTableBytes);
    assert!(is_steiner_tree_for(&g, &sol.tree, &terminals));
    assert!(sol.stats.budget_checks > 0);
    // Generous bound: the point is "no hang", not a micro-benchmark.
    assert!(took < Duration::from_secs(10), "took {took:?}");
}

/// Fast (debug-suite) rendition of the ladder at ~500 nodes.
#[test]
fn budgeted_solve_off_class_degrades_not_hangs() {
    assert_degrades_under_100ms_budget(250, 0.01, 42);
}

/// The issue's full acceptance scenario at ~2000 nodes. The solve is
/// milliseconds; the unbudgeted classification at construction is what
/// makes this a scale test (minutes in debug, seconds in release) — the
/// CI budget job runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "2k-node scale test; run explicitly (release)"]
fn budgeted_solve_on_large_off_class_graph_degrades_not_hangs() {
    assert_degrades_under_100ms_budget(1000, 0.002, 42);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graphs × random terminal sets: the governed solver always
    /// returns a value, and only the two legitimate outcomes appear —
    /// a certified tree or `Disconnected`. `Internal` (a caught panic or
    /// broken invariant) fails the property.
    #[test]
    fn solver_never_panics_on_random_inputs(
        n1 in 1usize..8,
        n2 in 1usize..8,
        density in 0u32..4,
        k in 0usize..6,
        seed in 0u64..1000,
    ) {
        let bg = random_bipartite(n1, n2, f64::from(density) * 0.15, seed);
        let g = bg.graph().clone();
        let k = k.min(g.node_count());
        let terminals = random_terminals(&g, None, k, seed ^ 0x9e37);
        let solver = Solver::new(bg);
        match solver.solve_steiner(&terminals) {
            Ok(sol) => {
                prop_assert!(terminals.is_subset_of(&sol.tree.nodes));
                if !terminals.is_empty() {
                    prop_assert!(is_steiner_tree_for(&g, &sol.tree, &terminals));
                }
                prop_assert_eq!(sol.cost, sol.tree.node_cost());
            }
            Err(SolveError::Disconnected) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
        for side in [Side::V1, Side::V2] {
            match solver.solve_pseudo(&terminals, side) {
                Ok(sol) => prop_assert!(terminals.is_subset_of(&sol.tree.nodes)),
                Err(SolveError::Disconnected) => {}
                Err(e) => prop_assert!(false, "unexpected pseudo error: {e}"),
            }
        }
    }
}

/// The global `mcc_degraded_total` value, read off the rendered scrape.
fn scraped_degraded_total() -> u64 {
    let mut scrape = String::new();
    mcc::obs::render_global_into(&mut scrape);
    scrape
        .lines()
        .find_map(|l| l.strip_prefix("mcc_degraded_total "))
        .and_then(|v| v.parse().ok())
        .expect("the global scrape carries mcc_degraded_total")
}

/// The `Solver` counts its own ladder steps, so an embedded solve that
/// no engine sees still shows up in the global scrape. The registry is
/// process-wide and other tests in this binary may degrade concurrently,
/// so the check is a lower bound on the delta.
#[test]
fn embedded_degraded_solve_raises_the_global_ladder_counter() {
    let solver = Solver::with_config(
        off_class(),
        SolverConfig {
            budget: SolveBudget {
                max_dp_bytes: 0,
                ..SolveBudget::default()
            },
            ..SolverConfig::default()
        },
    );
    let n = solver.graph().graph().node_count();
    let terminals = NodeSet::from_nodes(n, [NodeId(0), NodeId(2)]);
    let before = scraped_degraded_total();
    let sol = solver
        .solve_steiner(&terminals)
        .expect("must degrade, not fail");
    assert_eq!(sol.strategy, SteinerStrategy::Heuristic);
    let d = sol.degraded.expect("the DP admission refusal is recorded");
    assert_eq!(d.reason.kind, BudgetKind::DpTableBytes);
    assert!(scraped_degraded_total() > before);
}
