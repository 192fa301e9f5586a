//! Property-based optimality verification of the paper's algorithms
//! against exhaustive and exact baselines (Theorems 3 and 5,
//! Corollaries 4 and 5).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_chordality::{is_six_two_chordal, is_vi_chordal, is_vi_conformal};
use mcc_graph::{
    builder::graph_from_edges, BipartiteGraph, CancelToken, Graph, NodeId, NodeSet, Side, Workspace,
};
use mcc_steiner::{
    algorithm1, algorithm2, lemma1_ordering, minimum_cover_bruteforce,
    side_minimum_cover_bruteforce, steiner_exact, steiner_kmb, tree_side_cost, SolveError,
    SolveOutcome, SteinerInstance, SteinerTree,
};
use proptest::prelude::*;

/// Algorithm 1 with its Step 1: `None` when the side's hypergraph is not
/// α-acyclic (no Lemma 1 ordering exists), else the tree and its side
/// cost.
fn algorithm1_with_step1(
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    side: Side,
) -> Option<SolveOutcome<(SteinerTree, usize)>> {
    let order = lemma1_ordering(bg, side)?.order;
    let token = CancelToken::unbounded();
    let solved = algorithm1(&mut Workspace::new(), bg, terminals, side, &order, &token);
    Some(solved.map(|tree| {
        let cost = tree_side_cost(bg, &tree, side);
        (tree, cost)
    }))
}

/// Algorithm 2 along `order`; `None` when the terminals are disconnected.
fn algorithm2_along(g: &Graph, terminals: &NodeSet, order: &[NodeId]) -> Option<SteinerTree> {
    let token = CancelToken::unbounded();
    algorithm2(&mut Workspace::new(), g, terminals, order, &token).ok()
}

/// Random bipartite graph (≤ 4+4 nodes) plus a random terminal subset.
fn bipartite_with_terminals() -> impl Strategy<Value = (BipartiteGraph, NodeSet)> {
    (2usize..=4, 2usize..=4)
        .prop_flat_map(|(n1, n2)| {
            (
                proptest::collection::vec(proptest::bool::ANY, n1 * n2),
                proptest::collection::vec(proptest::bool::ANY, n1 + n2),
            )
                .prop_map(move |(coins, tcoins)| (n1, n2, coins, tcoins))
        })
        .prop_map(|(n1, n2, coins, tcoins)| {
            let mut edges = Vec::new();
            for i in 0..n1 {
                for j in 0..n2 {
                    if coins[i * n2 + j] {
                        edges.push((i, n1 + j));
                    }
                }
            }
            let g = graph_from_edges(n1 + n2, &edges);
            let mut side = vec![Side::V1; n1];
            side.extend(std::iter::repeat(Side::V2).take(n2));
            let bg = BipartiteGraph::new(g, side).expect("bipartite by construction");
            let terminals = NodeSet::from_nodes(
                n1 + n2,
                tcoins
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c)
                    .map(|(i, _)| NodeId::from_index(i)),
            );
            (bg, terminals)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Theorem 3: on V₂-chordal, V₂-conformal graphs Algorithm 1 returns
    /// a V₂-minimum tree over the terminals.
    #[test]
    fn algorithm1_is_v2_minimum_on_class((bg, terminals) in bipartite_with_terminals()) {
        match algorithm1_with_step1(&bg, &terminals, Side::V2) {
            Some(Ok((tree, side_cost))) => {
                prop_assert!(tree.is_valid_tree(bg.graph()));
                prop_assert!(terminals.is_subset_of(&tree.nodes));
                let v2 = bg.v2_set();
                let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &v2)
                    .expect("algorithm succeeded, so the instance is feasible");
                prop_assert_eq!(side_cost, bf.intersection(&v2).len());
            }
            Some(Err(e)) => {
                prop_assert_eq!(e, SolveError::Disconnected);
                prop_assert!(minimum_cover_bruteforce(bg.graph(), &terminals).is_none());
            }
            None => {
                // Must genuinely be off-class.
                let on_class = is_vi_chordal(&bg, Side::V2) && is_vi_conformal(&bg, Side::V2);
                prop_assert!(!on_class);
            }
        }
    }

    /// Corollary 4 route: pseudo-Steiner w.r.t. V₁ (Algorithm 1 along
    /// `H²`'s join tree) is V₁-minimum whenever it applies.
    #[test]
    fn pseudo_v1_is_v1_minimum_on_class((bg, terminals) in bipartite_with_terminals()) {
        if let Some(Ok((_, side_cost))) = algorithm1_with_step1(&bg, &terminals, Side::V1) {
            let v1 = bg.v1_set();
            let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &v1)
                .expect("feasible");
            prop_assert_eq!(side_cost, bf.intersection(&v1).len());
        }
    }

    /// Theorem 5 + Corollary 5: on (6,2)-chordal graphs Algorithm 2 is
    /// minimum under **every** elimination ordering (sampled: forward,
    /// reverse, odd-even interleave).
    #[test]
    fn algorithm2_is_minimum_on_six_two((bg, terminals) in bipartite_with_terminals()) {
        if !is_six_two_chordal(&bg) {
            return Ok(());
        }
        let g = bg.graph();
        let n = g.node_count();
        let forward: Vec<NodeId> = g.nodes().collect();
        let reverse: Vec<NodeId> = (0..n).rev().map(NodeId::from_index).collect();
        let interleave: Vec<NodeId> = (0..n)
            .filter(|i| i % 2 == 1)
            .chain((0..n).filter(|i| i % 2 == 0))
            .map(NodeId::from_index)
            .collect();
        let bf = minimum_cover_bruteforce(g, &terminals);
        for order in [forward, reverse, interleave] {
            match (algorithm2_along(g, &terminals, &order), &bf) {
                (Some(tree), Some(min)) => {
                    prop_assert!(tree.is_valid_tree(g));
                    prop_assert!(terminals.is_subset_of(&tree.nodes));
                    prop_assert_eq!(tree.node_cost(), min.len());
                }
                (None, None) => {}
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "feasibility mismatch: got {got:?} want {want:?}"
                    )));
                }
            }
        }
    }

    /// The exact Dreyfus–Wagner solver matches the exhaustive minimum
    /// cover on every feasible instance (including off-class ones).
    #[test]
    fn exact_solver_matches_bruteforce((bg, terminals) in bipartite_with_terminals()) {
        let g = bg.graph();
        let inst = SteinerInstance::new(g.clone(), terminals.clone());
        match (steiner_exact(&inst), minimum_cover_bruteforce(g, &terminals)) {
            (Some(sol), Some(min)) => {
                prop_assert_eq!(sol.cost as usize, min.len());
                prop_assert!(sol.tree.is_valid_tree(g));
                prop_assert!(terminals.is_subset_of(&sol.tree.nodes));
            }
            (None, None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility mismatch: exact={} brute={}",
                    got.is_some(),
                    want.is_some()
                )));
            }
        }
    }

    /// The two exact solvers — Dreyfus–Wagner and iterative-deepening —
    /// agree on cost everywhere.
    #[test]
    fn exact_solvers_agree((bg, terminals) in bipartite_with_terminals()) {
        let g = bg.graph();
        let dw = steiner_exact(&SteinerInstance::new(g.clone(), terminals.clone()));
        let ids = mcc_steiner::steiner_exact_ids(g, &terminals);
        match (dw, ids) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.cost, b.cost);
                prop_assert!(b.tree.is_valid_tree(g));
                prop_assert!(terminals.is_subset_of(&b.tree.nodes));
            }
            (None, None) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility mismatch: dw={} ids={}",
                    a.is_some(),
                    b.is_some()
                )));
            }
        }
    }

    /// The KMB heuristic always returns a valid tree within 2× of the
    /// optimal node count (and never below it).
    #[test]
    fn kmb_is_sound_and_two_approx((bg, terminals) in bipartite_with_terminals()) {
        let g = bg.graph();
        let inst = SteinerInstance::new(g.clone(), terminals.clone());
        let kmb = steiner_kmb(&mut Workspace::new(), g, &terminals, &CancelToken::unbounded()).ok();
        match (kmb, steiner_exact(&inst)) {
            (Some(h), Some(e)) => {
                prop_assert!(h.is_valid_tree(g));
                prop_assert!(terminals.is_subset_of(&h.nodes));
                prop_assert!(h.node_cost() as u64 >= e.cost);
                prop_assert!(h.node_cost() as u64 <= 2 * e.cost.max(1));
            }
            (None, None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility mismatch: kmb={} exact={}",
                    got.is_some(),
                    want.is_some()
                )));
            }
        }
    }

    /// Algorithm 2 always returns a nonredundant cover, on- or off-class.
    #[test]
    fn algorithm2_always_nonredundant((bg, terminals) in bipartite_with_terminals()) {
        let order: Vec<NodeId> = bg.graph().nodes().collect();
        if let Some(tree) = algorithm2_along(bg.graph(), &terminals, &order) {
            if !terminals.is_empty() {
                prop_assert!(mcc_steiner::is_nonredundant_cover(
                    bg.graph(),
                    &tree.nodes,
                    &terminals
                ));
            }
        }
    }
}
