//! Differential and metamorphic verification of the solver's routing
//! contract (satellite of the observability PR, but solver-facing).
//!
//! Two families of oracle:
//!
//! * **Relabeling invariance** — a Steiner/pseudo-Steiner cost is a
//!   graph *property*, so it must be invariant under vertex relabeling
//!   permutations. Algorithms 1 and 2 walk elimination orders derived
//!   from node numbering; if any step accidentally depended on the
//!   numbering rather than the structure, a random permutation would
//!   expose it as a cost difference.
//! * **Exact differential** — on small instances the Dreyfus–Wagner DP
//!   is an independent ground truth: routes that claim optimality
//!   (Algorithm 2, exact, Algorithm 1 under V₂ weights) must *equal*
//!   it, and the KMB heuristic must never beat it (cost ≥ exact).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc::prelude::*;
use mcc::SolverConfig;
use mcc_gen::block_tree::BlockTreeShape;
use mcc_gen::join_tree::JoinTreeShape;
use mcc_gen::{
    random_alpha_acyclic, random_bipartite, random_six_two_block_tree, random_terminals,
};
use mcc_graph::Side;
use mcc_steiner::{steiner_exact, steiner_exact_node_weighted, SteinerInstance};
use proptest::prelude::*;

/// splitmix64 — the tests own their permutation stream, so the suite
/// needs no extra dev-dependencies and every run is reproducible from
/// the seed printed in a failure.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform random permutation of `0..n` (Fisher–Yates), `perm[old] = new`.
fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Relabels `bg`'s vertices through `perm` (labels, adjacency, and side
/// assignments all move together) and maps `terminals` along. The result
/// is isomorphic to the input, so every cost-type query must answer the
/// same number.
fn relabel(bg: &BipartiteGraph, terminals: &NodeSet, perm: &[usize]) -> (BipartiteGraph, NodeSet) {
    let g = bg.graph();
    let n = g.node_count();
    let mut inv = vec![0usize; n];
    for (old, &new) in perm.iter().enumerate() {
        inv[new] = old;
    }
    let mut b = Graph::builder();
    for &old in &inv {
        b.add_node(g.label(NodeId::from_index(old)));
    }
    for (a, c) in g.edges() {
        b.add_edge(
            NodeId::from_index(perm[a.index()]),
            NodeId::from_index(perm[c.index()]),
        )
        .expect("permuted edge endpoints are in range");
    }
    let side: Vec<Side> = inv
        .iter()
        .map(|&old| bg.side(NodeId::from_index(old)))
        .collect();
    let pg = BipartiteGraph::new(b.build(), side).expect("isomorphic image stays bipartite");
    let pt = NodeSet::from_nodes(
        n,
        terminals
            .iter()
            .map(|v| NodeId::from_index(perm[v.index()])),
    );
    (pg, pt)
}

/// The exact optimum for the same instance the solver saw, as a plain
/// node count (unit weights).
fn exact_cost(bg: &BipartiteGraph, terminals: &NodeSet) -> Option<usize> {
    let inst = SteinerInstance::new(bg.graph().clone(), terminals.clone());
    steiner_exact(&inst).map(|sol| sol.cost as usize)
}

/// The exact V₂-minimum connection cost: weight 1 on V₂ nodes, 0 on V₁,
/// so the weighted DP minimizes exactly what Algorithm 1 minimizes.
fn exact_v2_cost(bg: &BipartiteGraph, terminals: &NodeSet) -> Option<usize> {
    let w: Vec<u64> = bg
        .graph()
        .nodes()
        .map(|v| u64::from(bg.side(v) == Side::V2))
        .collect();
    steiner_exact_node_weighted(bg.graph(), terminals, &w).map(|sol| sol.cost as usize)
}

// ---------------------------------------------------------------------
// In-class: Algorithm 2 ((6,2)-chordal block trees)
// ---------------------------------------------------------------------

#[test]
fn algorithm2_cost_invariant_under_relabeling_and_equals_exact() {
    for seed in 0..12u64 {
        let bg = random_six_two_block_tree(BlockTreeShape::default(), seed);
        let n = bg.graph().node_count();
        let terminals = random_terminals(bg.graph(), None, 3.min(n), seed ^ 0xA5A5);

        let solver = Solver::new(bg.clone());
        let sol = solver
            .solve_steiner(&terminals)
            .expect("block tree is connected");
        assert_eq!(
            sol.strategy,
            SteinerStrategy::Algorithm2,
            "block trees are (6,2)-chordal, seed {seed}"
        );
        assert!(sol.tree.is_valid_tree(bg.graph()));
        assert!(terminals.is_subset_of(&sol.tree.nodes));

        // Differential: Algorithm 2 claims optimality (Theorem 5);
        // Dreyfus–Wagner is the independent referee.
        assert_eq!(
            Some(sol.cost),
            exact_cost(&bg, &terminals),
            "Algorithm 2 must match the exact DP, seed {seed}"
        );

        // Metamorphic: the cost is invariant under relabeling.
        for round in 0..3u64 {
            let perm = random_permutation(n, seed * 31 + round);
            let (pg, pt) = relabel(&bg, &terminals, &perm);
            let psol = Solver::new(pg.clone())
                .solve_steiner(&pt)
                .expect("isomorphic image stays connected");
            assert_eq!(
                psol.cost, sol.cost,
                "relabeling changed the cost, seed {seed} round {round}"
            );
            assert_eq!(psol.strategy, SteinerStrategy::Algorithm2);
            assert!(psol.tree.is_valid_tree(pg.graph()));
            assert!(pt.is_subset_of(&psol.tree.nodes));
        }
    }
}

// ---------------------------------------------------------------------
// In-class: Algorithm 1 (α-acyclic incidence graphs, pseudo-Steiner V₂)
// ---------------------------------------------------------------------

#[test]
fn algorithm1_v2_cost_invariant_under_relabeling_and_equals_weighted_exact() {
    for seed in 0..12u64 {
        let shape = JoinTreeShape {
            num_edges: 5,
            max_shared: 2,
            max_fresh: 3,
        };
        let (_h, bg) = random_alpha_acyclic(shape, seed);
        let n = bg.graph().node_count();
        let v1 = bg.v1_set();
        let k = 3.min(v1.len());
        let terminals = random_terminals(bg.graph(), Some(&v1), k, seed ^ 0x5A5A);

        let solver = Solver::new(bg.clone());
        let sol = solver
            .solve_pseudo(&terminals, Side::V2)
            .expect("incidence graph is connected");
        assert_eq!(
            sol.strategy,
            SteinerStrategy::Algorithm1,
            "join-tree graphs are α-acyclic, seed {seed}"
        );
        assert!(sol.tree.is_valid_tree(bg.graph()));
        assert!(terminals.is_subset_of(&sol.tree.nodes));

        // Differential: Theorems 3–4 claim V₂-minimality; the weighted
        // DP (V₂ nodes cost 1, V₁ nodes cost 0) referees the claim.
        assert_eq!(
            Some(sol.cost),
            exact_v2_cost(&bg, &terminals),
            "Algorithm 1 must match the V₂-weighted exact DP, seed {seed}"
        );

        for round in 0..3u64 {
            let perm = random_permutation(n, seed * 37 + round);
            let (pg, pt) = relabel(&bg, &terminals, &perm);
            let psol = Solver::new(pg)
                .solve_pseudo(&pt, Side::V2)
                .expect("isomorphic image stays connected");
            assert_eq!(
                psol.cost, sol.cost,
                "relabeling changed the V₂ cost, seed {seed} round {round}"
            );
            assert_eq!(psol.strategy, SteinerStrategy::Algorithm1);
        }
    }
}

// ---------------------------------------------------------------------
// Off-class: the heuristic route never beats the exact optimum
// ---------------------------------------------------------------------

/// One cross-check of an arbitrary bipartite instance against the exact
/// DP: optimal routes must equal it, the heuristic must not beat it.
/// Returns `false` when the instance is infeasible (skipped).
fn check_against_exact(bg: &BipartiteGraph, terminals: &NodeSet) -> bool {
    let Some(exact) = exact_cost(bg, terminals) else {
        // Terminals disconnected: the solver must agree.
        let err = Solver::new(bg.clone()).solve_steiner(terminals);
        assert!(
            matches!(err, Err(SolveError::Disconnected)),
            "exact says disconnected, solver says {err:?}"
        );
        return false;
    };
    let solver = Solver::new(bg.clone());
    let sol = solver.solve_steiner(terminals).expect("exact found a tree");
    assert!(sol.tree.is_valid_tree(bg.graph()));
    assert!(terminals.is_subset_of(&sol.tree.nodes));
    if sol.strategy.optimal() && sol.degraded.is_none() {
        assert_eq!(sol.cost, exact, "optimal route must match the DP");
    } else {
        assert!(
            sol.cost >= exact,
            "a heuristic cannot beat the optimum: {} < {exact}",
            sol.cost
        );
    }
    true
}

#[test]
fn off_class_heuristic_route_never_beats_exact() {
    // Force the heuristic on off-class graphs by disallowing exact
    // routing, so the KMB ≥ exact inequality is actually exercised.
    let config = SolverConfig {
        max_exact_terminals: 0,
        ..SolverConfig::default()
    };
    let mut checked = 0u32;
    for seed in 0..40u64 {
        let bg = random_bipartite(5, 5, 0.6, seed);
        let n = bg.graph().node_count();
        let terminals = random_terminals(bg.graph(), None, 3.min(n), seed ^ 0xC3C3);
        let Some(exact) = exact_cost(&bg, &terminals) else {
            continue;
        };
        let sol = match Solver::with_config(bg.clone(), config).solve_steiner(&terminals) {
            Ok(sol) => sol,
            Err(SolveError::Disconnected) => continue,
            Err(e) => panic!("unexpected solve error: {e:?}"),
        };
        assert!(sol.tree.is_valid_tree(bg.graph()));
        assert!(terminals.is_subset_of(&sol.tree.nodes));
        if sol.strategy == SteinerStrategy::Heuristic {
            checked += 1;
            assert!(
                sol.cost >= exact,
                "KMB beat the exact optimum: {} < {exact}, seed {seed}",
                sol.cost
            );
        } else {
            // In-class by luck: the optimal route must equal the DP.
            assert_eq!(sol.cost, exact, "optimal route off by seed {seed}");
        }
    }
    assert!(
        checked >= 3,
        "too few heuristic-routed instances: {checked}"
    );
}

// ---------------------------------------------------------------------
// Seeded proptest sweep: the same oracles over a wider random space
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any bipartite instance: the auto-routing solver is refereed by
    /// the exact DP (equality on optimal routes, ≥ on the heuristic).
    #[test]
    fn solver_vs_exact_differential(
        seed in 0u64..1 << 48,
        n1 in 2usize..=4,
        n2 in 2usize..=4,
        k in 2usize..=3,
    ) {
        let bg = random_bipartite(n1, n2, 0.5, seed);
        let terminals =
            random_terminals(bg.graph(), None, k.min(n1 + n2), seed ^ 0xF0F0);
        check_against_exact(&bg, &terminals);
    }

    /// In-class instances stay in class and stay optimal under random
    /// relabeling (Algorithm 2's answer is a graph property).
    #[test]
    fn algorithm2_relabeling_proptest(
        seed in 0u64..1 << 48,
        perm_seed in 0u64..1 << 48,
    ) {
        let shape = BlockTreeShape { blocks: 4, max_block: 3 };
        let bg = random_six_two_block_tree(shape, seed);
        let n = bg.graph().node_count();
        let terminals = random_terminals(bg.graph(), None, 3.min(n), seed ^ 0x1111);
        let sol = Solver::new(bg.clone())
            .solve_steiner(&terminals)
            .expect("block tree is connected");
        prop_assert_eq!(sol.strategy, SteinerStrategy::Algorithm2);

        let perm = random_permutation(n, perm_seed);
        let (pg, pt) = relabel(&bg, &terminals, &perm);
        let psol = Solver::new(pg)
            .solve_steiner(&pt)
            .expect("isomorphic image stays connected");
        // The permuted graph classifies identically and costs the same.
        prop_assert_eq!(psol.strategy, SteinerStrategy::Algorithm2);
        prop_assert_eq!(psol.cost, sol.cost);
    }
}
