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
use mcc::graph::{BipartiteGraph, Graph, Side};
use mcc::steiner::{algorithm1, algorithm2};

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
                let reference = algorithm1(&bg, &terminals, Side::V2);
                for (name, variant) in variants(&bg) {
                    let got = algorithm1(&variant, &terminals, Side::V2);
                    match (&reference, &got) {
                        (Ok(want), Ok(have)) => {
                            assert_eq!(
                                want.side_cost, have.side_cost,
                                "V2 cost diverged on {name} (n1={n1} n2={n2} p={p} seed={seed})"
                            );
                            assert_eq!(
                                want.tree.nodes, have.tree.nodes,
                                "tree nodes diverged on {name} (n1={n1} n2={n2} p={p} seed={seed})"
                            );
                        }
                        (Err(want), Err(have)) => assert_eq!(
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
                let reference = algorithm2(bg.graph(), &terminals);
                for (name, variant) in variants(&bg) {
                    let got = algorithm2(variant.graph(), &terminals);
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
