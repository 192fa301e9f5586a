//! Negative tests for the join-tree correctness certificate: a join
//! tree with one running-intersection edge broken (an overlapping child
//! detached from its parent) must be rejected by both the pairwise
//! debug checker ([`mcc_hypergraph::check_join_tree`]) and the
//! incremental RIP validator ([`JoinTree::is_valid`]).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_hypergraph::{check_join_tree, join_tree, Hypergraph, HypergraphBuilder};
use proptest::prelude::*;

/// A random connected α-acyclic hypergraph on `2..=8` edges: edge 0 is
/// a fresh pair, and every later edge shares one node with a previously
/// built edge plus one fresh node. Every edge overlaps its attachment
/// point, so every non-root of the join tree has a nonempty
/// running intersection — exactly the edge the test breaks.
fn random_acyclic_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..=8).prop_flat_map(|m| {
        proptest::collection::vec((0usize..m, 0usize..8), m - 1).prop_map(move |choices| {
            let mut b = HypergraphBuilder::new();
            let n0 = b.add_node("n0");
            let n1 = b.add_node("n1");
            let mut edge_nodes = vec![vec![n0, n1]];
            b.add_edge("e0", [n0, n1]).expect("nonempty edge");
            for (i, &(parent, which)) in choices.iter().enumerate() {
                let attach_to = &edge_nodes[parent % edge_nodes.len()];
                let shared = attach_to[which % attach_to.len()];
                let fresh = b.add_node(format!("n{}", i + 2));
                b.add_edge(format!("e{}", i + 1), [shared, fresh])
                    .expect("nonempty edge");
                edge_nodes.push(vec![shared, fresh]);
            }
            b.build()
        })
    })
}

proptest! {
    /// Detaching an overlapping child from its parent leaves two forest
    /// components whose edges intersect — the connectedness half of the
    /// join-tree property — and both validators must notice.
    #[test]
    fn broken_running_intersection_edge_is_rejected(h in random_acyclic_hypergraph()) {
        let jt = join_tree(&h).expect("acyclic by construction");
        prop_assert!(check_join_tree(&h, &jt), "genuine join tree rejected");
        prop_assert!(jt.is_valid(&h));

        // The hypergraph is connected with >= 2 edges, so some edge has a
        // parent (and overlaps it: a RIP parent witnesses a nonempty
        // intersection).
        let i = jt
            .parent
            .iter()
            .position(|p| p.is_some())
            .expect("a connected join tree on >= 2 edges has a non-root");
        let mut bad = jt.clone();
        bad.parent[i] = None;
        prop_assert!(
            !check_join_tree(&h, &bad),
            "orphaned overlapping edge accepted by check_join_tree"
        );
        prop_assert!(!bad.is_valid(&h), "orphaned overlapping edge accepted by is_valid");
    }
}
