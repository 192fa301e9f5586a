//! Random α-acyclic hypergraphs by join-tree construction — the workload
//! for Algorithm 1 (experiment E4).
//!
//! Construction: start from one edge of fresh nodes; each subsequent edge
//! picks a random existing edge as its join-tree parent, inherits a
//! random nonempty subset of the parent's nodes, and adds fresh nodes.
//! The running intersection property holds by construction, so the
//! result is α-acyclic, and the incidence bipartite graph is V₂-chordal
//! and V₂-conformal (Theorem 1(v)) — exactly Algorithm 1's class.

use crate::rng;
use mcc_graph::{BipartiteGraph, NodeId};
use mcc_hypergraph::{incidence_bipartite, Hypergraph, HypergraphBuilder};
use rand::Rng;

/// Shape parameters for [`random_alpha_acyclic`].
#[derive(Debug, Clone, Copy)]
pub struct JoinTreeShape {
    /// Number of hyperedges (relations).
    pub num_edges: usize,
    /// Maximum nodes shared with the parent edge (≥ 1 actual share).
    pub max_shared: usize,
    /// Maximum fresh nodes added per edge (≥ 1 on the first edge).
    pub max_fresh: usize,
}

impl Default for JoinTreeShape {
    fn default() -> Self {
        JoinTreeShape {
            num_edges: 8,
            max_shared: 3,
            max_fresh: 4,
        }
    }
}

/// Generates a random α-acyclic hypergraph (see module docs), returning
/// it together with its incidence bipartite graph (attribute nodes on
/// `V1`, relation nodes on `V2`).
pub fn random_alpha_acyclic(shape: JoinTreeShape, seed: u64) -> (Hypergraph, BipartiteGraph) {
    assert!(shape.num_edges >= 1, "need at least one edge");
    assert!(
        shape.max_shared >= 1 && shape.max_fresh >= 1,
        "degenerate shape"
    );
    let mut r = rng(seed);
    let mut b = HypergraphBuilder::new();
    let mut edges: Vec<Vec<NodeId>> = Vec::with_capacity(shape.num_edges);

    for e in 0..shape.num_edges {
        let mut members: Vec<NodeId> = Vec::new();
        if !edges.is_empty() {
            let parent = r.gen_range(0..edges.len());
            // Random distinct sample of ≥ 1 parent members — this is the
            // running-intersection witness.
            let mut pool = edges[parent].clone();
            let share = r.gen_range(1..=shape.max_shared.min(pool.len()));
            for _ in 0..share {
                let i = r.gen_range(0..pool.len());
                members.push(pool.swap_remove(i));
            }
        }
        let fresh = if members.is_empty() {
            r.gen_range(1..=shape.max_fresh)
        } else {
            r.gen_range(0..=shape.max_fresh)
        };
        for _ in 0..fresh {
            members.push(b.add_node(format!("A{}", b.node_count())));
        }
        debug_assert!(!members.is_empty(), "share ≥ 1 whenever a parent exists");
        #[expect(
            clippy::expect_used,
            reason = "`members` holds at least the attributes shared with the parent (share >= 1)"
        )]
        b.add_edge(format!("R{}", e + 1), members.clone())
            .expect("nonempty edge");
        edges.push(members);
    }
    let h = b.build();
    let bg = incidence_bipartite(&h);
    (h, bg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_chordality::{is_vi_chordal, is_vi_conformal};
    use mcc_graph::Side;
    use mcc_hypergraph::{gyo_reduce, is_alpha_acyclic};

    #[test]
    fn generated_hypergraphs_are_alpha_acyclic() {
        for seed in 0..10 {
            let (h, _) = random_alpha_acyclic(JoinTreeShape::default(), seed);
            assert!(is_alpha_acyclic(&h), "seed {seed}");
            assert!(gyo_reduce(&h).acyclic, "seed {seed}");
        }
    }

    #[test]
    fn incidence_graph_is_on_algorithm1_class() {
        for seed in 0..5 {
            let (_, bg) = random_alpha_acyclic(JoinTreeShape::default(), seed);
            assert!(is_vi_chordal(&bg, Side::V2), "seed {seed}");
            assert!(is_vi_conformal(&bg, Side::V2), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (h1, _) = random_alpha_acyclic(JoinTreeShape::default(), 3);
        let (h2, _) = random_alpha_acyclic(JoinTreeShape::default(), 3);
        assert_eq!(h1, h2);
    }

    #[test]
    fn scales_to_requested_edge_count() {
        let shape = JoinTreeShape {
            num_edges: 40,
            max_shared: 2,
            max_fresh: 3,
        };
        let (h, bg) = random_alpha_acyclic(shape, 11);
        assert_eq!(h.edge_count(), 40);
        assert_eq!(bg.side_nodes(Side::V2).count(), 40);
    }

    #[test]
    fn single_edge_shape() {
        let shape = JoinTreeShape {
            num_edges: 1,
            max_shared: 1,
            max_fresh: 3,
        };
        let (h, _) = random_alpha_acyclic(shape, 0);
        assert_eq!(h.edge_count(), 1);
        assert!(is_alpha_acyclic(&h));
    }
}
