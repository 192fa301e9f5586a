//! Random interval hypergraphs: β-acyclic workloads ((6,1)-chordal
//! incidence graphs) for the Corollary 4 experiments.
//!
//! Edges are intervals `[lo, hi]` over a linearly ordered node universe.
//! Interval hypergraphs are totally balanced, hence β-acyclic: the first
//! node of the order is always a nest point (the intervals containing it
//! all start at it, so they are ordered by their right endpoints), and
//! removing it keeps the family interval. The recognizer asserts the
//! class in tests rather than trusting this argument.

use crate::rng;
use mcc_graph::{BipartiteGraph, NodeId};
use mcc_hypergraph::{incidence_bipartite, Hypergraph, HypergraphBuilder};
use rand::Rng;

/// Shape parameters for [`random_interval_hypergraph`].
#[derive(Debug, Clone, Copy)]
pub struct IntervalShape {
    /// Number of nodes in the ordered universe.
    pub nodes: usize,
    /// Number of interval edges.
    pub edges: usize,
    /// Maximum interval length (number of nodes per edge).
    pub max_len: usize,
}

impl Default for IntervalShape {
    fn default() -> Self {
        IntervalShape {
            nodes: 12,
            edges: 8,
            max_len: 4,
        }
    }
}

/// Generates a random interval hypergraph plus its incidence bipartite
/// graph (which is chordal bipartite / (6,1)-chordal).
pub fn random_interval_hypergraph(shape: IntervalShape, seed: u64) -> (Hypergraph, BipartiteGraph) {
    assert!(
        shape.nodes >= 1 && shape.edges >= 1 && shape.max_len >= 1,
        "degenerate shape"
    );
    let mut r = rng(seed);
    let mut b = HypergraphBuilder::new();
    let nodes: Vec<NodeId> = (0..shape.nodes)
        .map(|i| b.add_node(format!("p{i}")))
        .collect();
    for e in 0..shape.edges {
        let len = r.gen_range(1..=shape.max_len.min(shape.nodes));
        let lo = r.gen_range(0..=shape.nodes - len);
        #[expect(
            clippy::expect_used,
            reason = "`len >= 1`, so the interval slice is nonempty"
        )]
        b.add_edge(format!("I{}", e + 1), nodes[lo..lo + len].iter().copied())
            .expect("nonempty interval");
    }
    let h = b.build();
    let bg = incidence_bipartite(&h);
    (h, bg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_chordality::is_chordal_bipartite;
    use mcc_hypergraph::is_beta_acyclic;

    #[test]
    fn intervals_are_beta_acyclic() {
        for seed in 0..10 {
            let (h, bg) = random_interval_hypergraph(IntervalShape::default(), seed);
            assert!(is_beta_acyclic(&h), "seed {seed}");
            assert!(is_chordal_bipartite(bg.graph()), "seed {seed}");
        }
    }

    #[test]
    fn respects_shape() {
        let shape = IntervalShape {
            nodes: 9,
            edges: 5,
            max_len: 3,
        };
        let (h, _) = random_interval_hypergraph(shape, 2);
        assert_eq!(h.node_count(), 9);
        assert_eq!(h.edge_count(), 5);
        for e in h.edge_ids() {
            assert!(h.edge(e).len() <= 3);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = random_interval_hypergraph(IntervalShape::default(), 9);
        let (b, _) = random_interval_hypergraph(IntervalShape::default(), 9);
        assert_eq!(a, b);
    }
}
