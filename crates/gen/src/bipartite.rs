//! Random bipartite graphs and trees.

use crate::rng;
use mcc_graph::{BipartiteGraph, Graph, NodeId, Side};
use rand::Rng;

/// Erdős–Rényi bipartite graph: `n1 + n2` nodes, each of the `n1·n2`
/// possible arcs present independently with probability `p`.
#[expect(
    clippy::expect_used,
    reason = "both endpoint ids were minted by this builder, and every edge joins a V1 index to a V2 index"
)]
pub fn random_bipartite(n1: usize, n2: usize, p: f64, seed: u64) -> BipartiteGraph {
    let mut r = rng(seed);
    let mut b = Graph::builder();
    for i in 0..n1 {
        b.add_node(format!("x{i}"));
    }
    for j in 0..n2 {
        b.add_node(format!("y{j}"));
    }
    for i in 0..n1 {
        for j in 0..n2 {
            if r.gen_bool(p) {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(n1 + j))
                    .expect("ids valid");
            }
        }
    }
    let mut side = vec![Side::V1; n1];
    side.extend(std::iter::repeat(Side::V2).take(n2));
    BipartiteGraph::new(b.build(), side).expect("bipartite by construction")
}

/// Random tree on `n` nodes by uniform random attachment, two-colored by
/// BFS depth — a (4,1)-chordal bipartite graph.
#[expect(
    clippy::expect_used,
    reason = "`parent < i`, so both ids were already minted, and tree edges join consecutive depths, which alternate sides"
)]
pub fn random_tree_bipartite(n: usize, seed: u64) -> BipartiteGraph {
    let mut r = rng(seed);
    let mut b = Graph::builder();
    let mut depth = Vec::with_capacity(n);
    for i in 0..n {
        b.add_node(format!("t{i}"));
        if i == 0 {
            depth.push(0usize);
        } else {
            let parent = r.gen_range(0..i);
            b.add_edge(NodeId::from_index(i), NodeId::from_index(parent))
                .expect("ids valid");
            depth.push(depth[parent] + 1);
        }
    }
    let side = depth
        .into_iter()
        .map(|d| if d % 2 == 0 { Side::V1 } else { Side::V2 })
        .collect();
    BipartiteGraph::new(b.build(), side).expect("trees are bipartite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_chordality::is_forest;
    use mcc_graph::is_connected;

    #[test]
    fn random_bipartite_is_deterministic_and_bipartite() {
        let a = random_bipartite(5, 6, 0.4, 7);
        let b = random_bipartite(5, 6, 0.4, 7);
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        assert_eq!(a.side_count(Side::V1), 5);
        assert_eq!(a.side_count(Side::V2), 6);
        let c = random_bipartite(5, 6, 0.4, 8);
        // Different seed almost surely differs (fixed here, so assert).
        assert_ne!(
            a.graph().edges().collect::<Vec<_>>(),
            c.graph().edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn edge_probability_extremes() {
        let empty = random_bipartite(4, 4, 0.0, 1);
        assert_eq!(empty.graph().edge_count(), 0);
        let full = random_bipartite(4, 4, 1.0, 1);
        assert_eq!(full.graph().edge_count(), 16);
    }

    #[test]
    fn random_tree_is_a_connected_forest() {
        for seed in 0..5 {
            let t = random_tree_bipartite(20, seed);
            assert!(is_forest(t.graph()));
            assert!(is_connected(t.graph()));
            assert_eq!(t.graph().edge_count(), 19);
        }
    }

    #[test]
    fn singleton_tree() {
        let t = random_tree_bipartite(1, 0);
        assert_eq!(t.graph().node_count(), 1);
        assert_eq!(t.graph().edge_count(), 0);
    }
}
