//! Differential suite for the KMB heuristic.
//!
//! The production `steiner_kmb` runs on the schema graph
//! itself: closure rows that stop once every terminal is found, paths
//! read off the rows' BFS parents, and Algorithm 2's sweep run in place
//! over the path union. The oracle (`support/kmb_oracle.rs`) is the
//! textbook form: full BFS rows, a second BFS per path, and Algorithm 2
//! on a copy of the induced subgraph. Both must return the *same tree*,
//! nodes and edges, and the same `Disconnected` verdicts.
//!
//! Inputs: random bipartite graphs from sparse to dense, connected or
//! not, with 0–12 terminals; offclass-sized graphs with 8–10 terminals;
//! (6,2) block trees; α-acyclic join-tree schemas. Path choice follows
//! neighbour order, so every graph is checked as built, with a dense
//! bitset row on every node, and as pure CSR.
//!
//! The sweep is sized for release builds (`cargo test --release -p
//! mcc-steiner --test kmb_differential`) and stays a few seconds in
//! debug.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_gen::block_tree::BlockTreeShape;
use mcc_gen::join_tree::JoinTreeShape;
use mcc_gen::{
    random_alpha_acyclic, random_bipartite, random_six_two_block_tree, random_terminals, rng,
};
use mcc_graph::{CancelToken, Graph, NodeSet, Workspace};
use mcc_steiner::{algorithm2, steiner_kmb, SolveError, SteinerTree};
use rand::Rng;

#[path = "support/kmb_oracle.rs"]
mod kmb_oracle;

/// Runs both forms on `g` as built, all-dense and pure CSR, and asserts
/// equal results on each. Returns whether the terminals were connected.
fn check(g: &Graph, terminals: &NodeSet) -> bool {
    let mut dense = g.clone();
    dense.rebuild_bit_rows(0);
    let mut sparse = g.clone();
    sparse.rebuild_bit_rows(usize::MAX);
    let mut connected = None;
    for (repr, g) in [
        ("as built", g),
        ("all dense", &dense),
        ("pure CSR", &sparse),
    ] {
        let fast = steiner_kmb(
            &mut Workspace::new(),
            g,
            terminals,
            &CancelToken::unbounded(),
        );
        let slow = kmb_oracle::steiner_kmb(g, terminals);
        assert!(
            matches!(slow, Ok(_) | Err(SolveError::Disconnected)),
            "oracle failed: {slow:?}"
        );
        assert_eq!(
            fast,
            slow,
            "KMB diverged ({repr}, {} nodes, {} edges): terminals {:?}",
            g.node_count(),
            g.edge_count(),
            terminals.to_vec()
        );
        if let Ok(tree) = &fast {
            assert!(tree.is_valid_tree(g));
            assert!(terminals.is_subset_of(&tree.nodes));
        }
        connected = Some(fast.is_ok());
    }
    connected.unwrap()
}

#[test]
fn random_bipartite_graphs_match_the_oracle() {
    let (mut connected, mut disconnected) = (0, 0);
    for seed in 0..1200u64 {
        let mut r = rng(seed);
        let (n1, n2) = (r.gen_range(3..=50), r.gen_range(3..=50));
        let p = [0.05, 0.1, 0.2, 0.4][seed as usize % 4];
        let bg = random_bipartite(n1, n2, p, seed);
        let g = bg.graph();
        let k = r.gen_range(0..=12usize);
        let terminals = random_terminals(g, None, k, seed + 1);
        if check(g, &terminals) {
            connected += 1;
        } else {
            disconnected += 1;
        }
    }
    // The sweep must exercise both verdicts.
    assert!(
        connected > 200 && disconnected > 200,
        "{connected} / {disconnected}"
    );
}

#[test]
fn offclass_sized_graphs_match_the_oracle() {
    for seed in 0..400u64 {
        let mut r = rng(seed);
        let side = r.gen_range(34..=46usize);
        let bg = random_bipartite(side, side, 4.0 / side as f64, seed);
        let g = bg.graph();
        let k = r.gen_range(8..=10usize);
        check(g, &random_terminals(g, None, k, seed + 7));
    }
}

#[test]
fn six_two_block_trees_match_the_oracle() {
    for seed in 0..150u64 {
        let shape = BlockTreeShape {
            blocks: 1 + (seed as usize % 30),
            max_block: 2 + (seed as usize % 3),
        };
        let bg = random_six_two_block_tree(shape, seed);
        let g = bg.graph();
        for k in [1, 2, 3, 5, 8, 12] {
            let terminals = random_terminals(g, None, k.min(g.node_count()), seed * 31 + k as u64);
            assert!(check(g, &terminals), "block trees are connected");
        }
    }
}

#[test]
fn alpha_acyclic_schemas_match_the_oracle() {
    for seed in 0..150u64 {
        let shape = JoinTreeShape {
            num_edges: 1 + (seed as usize % 30),
            max_shared: 1 + (seed as usize % 3),
            max_fresh: 1 + (seed as usize % 4),
        };
        let (_, bg) = random_alpha_acyclic(shape, seed);
        let g = bg.graph();
        let v1 = bg.v1_set();
        for k in [1, 2, 4, 6, 10] {
            let attrs = random_terminals(g, Some(&v1), k.min(v1.len()), seed * 17 + k as u64);
            let mixed = random_terminals(g, None, k.min(g.node_count()), seed * 19 + k as u64);
            check(g, &attrs);
            check(g, &mixed);
        }
    }
}
