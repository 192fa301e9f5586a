//! Differential (metamorphic) suite for the hybrid bitset adjacency.
//!
//! The dense `u64`-word rows are *derived* data (see
//! `Graph::rebuild_bit_rows`): every recognizer and both connection
//! algorithms must return identical answers whether a graph stores pure
//! CSR rows (`rebuild_bit_rows(usize::MAX)`), all-dense rows
//! (`rebuild_bit_rows(0)`), or the default degree-threshold hybrid. This
//! suite sweeps seeded Erdős–Rényi bipartite graphs across the density
//! spectrum and compares the three representations end to end —
//! classification vectors, Algorithm 1 feasibility and `V₂` cost, and
//! Algorithm 2 node cost. Any divergence is a word-parallel fast path
//! disagreeing with the reference CSR semantics.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc::chordality::classify_bipartite;
use mcc::gen::{random_bipartite, random_terminals};
use mcc::graph::{BipartiteGraph, CancelToken, Graph, NodeId, NodeSet, Side, Workspace};
use mcc::steiner::{
    algorithm1, algorithm2, lemma1_ordering, tree_side_cost, SolveOutcome, SteinerTree,
};

/// Sizes × edge probabilities covering sparse, mid, and near-complete
/// regions (the hybrid's CSR-only, mixed, and all-dense regimes).
const SHAPES: &[(usize, usize)] = &[(6, 5), (12, 10), (20, 16)];
const DENSITIES: &[f64] = &[0.08, 0.3, 0.7, 0.95];
const SEEDS: u64 = 5;

/// Re-packs `bg` so its inner graph uses the given bit-row threshold.
/// Edges and sides are untouched — only the adjacency representation
/// changes, which is exactly the degree of freedom under test.
fn with_threshold(bg: &BipartiteGraph, min_degree: usize) -> BipartiteGraph {
    let mut g: Graph = bg.graph().clone();
    g.rebuild_bit_rows(min_degree);
    let side = bg.graph().nodes().map(|v| bg.side(v)).collect();
    BipartiteGraph::new(g, side).expect("same edges, same sides")
}

/// The three representations of one logical graph: reference CSR,
/// all-dense, and the construction-time hybrid default.
fn variants(bg: &BipartiteGraph) -> [(&'static str, BipartiteGraph); 3] {
    [
        ("csr", with_threshold(bg, usize::MAX)),
        ("dense", with_threshold(bg, 0)),
        ("hybrid", bg.clone()),
    ]
}

/// Algorithm 1 minimizing `V2`, Step 1 included: `None` when `H¹` is
/// not α-acyclic (no Lemma 1 ordering exists), else the tree's nodes
/// and `V2` cost.
fn algorithm1_v2(
    bg: &BipartiteGraph,
    terminals: &NodeSet,
) -> Option<SolveOutcome<(NodeSet, usize)>> {
    let order = lemma1_ordering(bg, Side::V2)?.order;
    let token = CancelToken::unbounded();
    let solved = algorithm1(
        &mut Workspace::new(),
        bg,
        terminals,
        Side::V2,
        &order,
        &token,
    );
    Some(solved.map(|tree| {
        let cost = tree_side_cost(bg, &tree, Side::V2);
        (tree.nodes, cost)
    }))
}

/// Algorithm 2 in increasing id order; `None` when the terminals are
/// not connected.
fn algorithm2_by_id(g: &Graph, terminals: &NodeSet) -> Option<SteinerTree> {
    let order: Vec<NodeId> = g.nodes().collect();
    let token = CancelToken::unbounded();
    algorithm2(&mut Workspace::new(), g, terminals, &order, &token).ok()
}

#[test]
fn classifications_agree_across_representations() {
    for &(n1, n2) in SHAPES {
        for &p in DENSITIES {
            for seed in 0..SEEDS {
                let bg = random_bipartite(n1, n2, p, seed);
                let reference = classify_bipartite(&bg);
                for (name, variant) in variants(&bg) {
                    assert_eq!(
                        classify_bipartite(&variant),
                        reference,
                        "classification diverged on {name} (n1={n1} n2={n2} p={p} seed={seed})"
                    );
                }
            }
        }
    }
}

#[test]
fn algorithm1_agrees_across_representations() {
    for &(n1, n2) in SHAPES {
        for &p in DENSITIES {
            for seed in 0..SEEDS {
                let bg = random_bipartite(n1, n2, p, seed);
                let k = (n1 / 2).max(2);
                let terminals = random_terminals(bg.graph(), Some(&bg.v1_set()), k, seed ^ 0xA1);
                let reference = algorithm1_v2(&bg, &terminals);
                for (name, variant) in variants(&bg) {
                    let got = algorithm1_v2(&variant, &terminals);
                    match (&reference, &got) {
                        (Some(Ok(want)), Some(Ok(have))) => {
                            assert_eq!(
                                want.1, have.1,
                                "V2 cost diverged on {name} (n1={n1} n2={n2} p={p} seed={seed})"
                            );
                            assert_eq!(
                                want.0, have.0,
                                "tree nodes diverged on {name} (n1={n1} n2={n2} p={p} seed={seed})"
                            );
                        }
                        (None, None) => {}
                        (Some(Err(want)), Some(Err(have))) => assert_eq!(
                            want, have,
                            "error diverged on {name} (n1={n1} n2={n2} p={p} seed={seed})"
                        ),
                        _ => panic!(
                            "feasibility diverged on {name} (n1={n1} n2={n2} p={p} seed={seed}): \
                             reference {reference:?} vs {got:?}"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn algorithm2_agrees_across_representations() {
    for &(n1, n2) in SHAPES {
        for &p in DENSITIES {
            for seed in 0..SEEDS {
                let bg = random_bipartite(n1, n2, p, seed);
                let k = (n1 / 2).max(2);
                let terminals = random_terminals(bg.graph(), None, k, seed ^ 0xA2);
                let reference = algorithm2_by_id(bg.graph(), &terminals);
                for (name, variant) in variants(&bg) {
                    let got = algorithm2_by_id(variant.graph(), &terminals);
                    match (&reference, &got) {
                        (Some(want), Some(have)) => assert_eq!(
                            want.node_cost(),
                            have.node_cost(),
                            "node cost diverged on {name} (n1={n1} n2={n2} p={p} seed={seed})"
                        ),
                        (None, None) => {}
                        _ => panic!(
                            "feasibility diverged on {name} (n1={n1} n2={n2} p={p} seed={seed})"
                        ),
                    }
                }
            }
        }
    }
}
