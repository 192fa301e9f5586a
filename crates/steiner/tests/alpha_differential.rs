//! The Tarjan–Yannakakis join tree is the only α-acyclicity construction
//! in the library, so it is held here to independent oracles:
//!
//! * on every labelled bipartite graph with `|V1| = |V2| = 4` (2^16
//!   graphs, isolated nodes included), on both sides: `join_tree` of the
//!   side hypergraph succeeds exactly when the GYO reduction erases it,
//!   and every tree it returns passes the pairwise `check_join_tree`;
//! * on the same graphs, `lemma1_ordering` exists exactly when
//!   `classify_bipartite` reports the side hypergraph α-acyclic (Theorem
//!   1(v)/(vi), which the classifier decides graph-side);
//! * on generated α-acyclic schemas of 12–300 relations, `join_tree`
//!   always succeeds.
//!
//! Sized for release builds (`cargo test --release -p mcc-steiner --test
//! alpha_differential`); it also runs in debug.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_chordality::classify_bipartite;
use mcc_gen::join_tree::JoinTreeShape;
use mcc_gen::random_alpha_acyclic;
use mcc_graph::bipartite::bipartite_from_lists;
use mcc_graph::{BipartiteGraph, Side};
use mcc_hypergraph::{check_join_tree, gyo_reduce, join_tree, side_hypergraph};
use mcc_steiner::lemma1_ordering;

/// The bipartite graph on `4 + 4` nodes whose edge `(i, j)` is present
/// iff bit `4 * i + j` of `mask` is set.
fn graph_of_mask(mask: u32) -> BipartiteGraph {
    let edges: Vec<(usize, usize)> = (0..4)
        .flat_map(|i| (0..4).map(move |j| (i, j)))
        .filter(|&(i, j)| mask & (1 << (4 * i + j)) != 0)
        .collect();
    bipartite_from_lists(&["a", "b", "c", "d"], &["R", "S", "T", "U"], &edges)
}

#[test]
fn join_tree_matches_gyo_on_every_4_4_graph() {
    let mut trees = 0;
    for mask in 0u32..(1 << 16) {
        let bg = graph_of_mask(mask);
        for side in [Side::V1, Side::V2] {
            let (h, _, _) = side_hypergraph(&bg, side);
            let jt = join_tree(&h);
            assert_eq!(
                jt.is_some(),
                gyo_reduce(&h).acyclic,
                "mask={mask:#06x} side={side:?}"
            );
            if let Some(jt) = jt {
                trees += 1;
                assert!(check_join_tree(&h, &jt), "mask={mask:#06x} side={side:?}");
            }
        }
    }
    // Both verdicts occur: the sweep is not vacuous either way.
    assert!(trees > 0 && trees < 2 << 16, "trees={trees}");
}

#[test]
fn lemma1_ordering_matches_classification_on_every_4_4_graph() {
    for mask in 0u32..(1 << 16) {
        let bg = graph_of_mask(mask);
        let c = classify_bipartite(&bg);
        assert_eq!(
            lemma1_ordering(&bg, Side::V2).is_some(),
            c.h1_alpha_acyclic(),
            "mask={mask:#06x}"
        );
        assert_eq!(
            lemma1_ordering(&bg, Side::V1).is_some(),
            c.h2_alpha_acyclic(),
            "mask={mask:#06x}"
        );
    }
}

#[test]
fn join_tree_exists_on_generated_alpha_acyclic_schemas() {
    for num_edges in [12, 44, 72, 300] {
        let shape = JoinTreeShape {
            num_edges,
            ..JoinTreeShape::default()
        };
        for seed in 0..40 {
            let (h, _) = random_alpha_acyclic(shape, seed);
            let jt = join_tree(&h)
                .unwrap_or_else(|| panic!("no join tree: {num_edges} relations, seed {seed}"));
            assert!(jt.is_valid(&h), "{num_edges} relations, seed {seed}");
        }
    }
}
