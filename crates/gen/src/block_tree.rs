//! Random (6,2)-chordal bipartite graphs: trees of complete-bipartite
//! blocks glued at cut nodes — the workload for Algorithm 2
//! (experiment E5).
//!
//! Every cycle of the result lives inside one block (blocks meet at
//! single nodes), and inside a complete bipartite block every 6-cycle
//! carries all three of its candidate chords, so the graph is
//! (6,2)-chordal. The generator's class claim is asserted by the
//! recognizer in tests.

use crate::rng;
use mcc_graph::{BipartiteGraph, GraphBuilder, NodeId, Side};
use rand::Rng;

/// Shape parameters for [`random_six_two_block_tree`].
#[derive(Debug, Clone, Copy)]
pub struct BlockTreeShape {
    /// Number of complete-bipartite blocks.
    pub blocks: usize,
    /// Each block is `K_{a,b}` with `a, b` drawn from `2..=max_block`.
    pub max_block: usize,
}

impl Default for BlockTreeShape {
    fn default() -> Self {
        BlockTreeShape {
            blocks: 6,
            max_block: 3,
        }
    }
}

/// Generates a tree of complete-bipartite blocks glued at single nodes.
///
/// ```
/// use mcc_gen::block_tree::{random_six_two_block_tree, BlockTreeShape};
/// use mcc_chordality::is_six_two_chordal;
///
/// let bg = random_six_two_block_tree(BlockTreeShape::default(), 42);
/// assert!(is_six_two_chordal(&bg)); // always on-class
/// ```
#[expect(
    clippy::expect_used,
    reason = "block members were minted by this builder, and every block edge joins the two sides assigned to it"
)]
pub fn random_six_two_block_tree(shape: BlockTreeShape, seed: u64) -> BipartiteGraph {
    assert!(
        shape.blocks >= 1 && shape.max_block >= 2,
        "degenerate shape"
    );
    let mut r = rng(seed);
    let mut b = GraphBuilder::new();
    let mut side: Vec<Side> = Vec::new();
    // All nodes created so far (glue candidates).
    let mut all_nodes: Vec<NodeId> = Vec::new();

    for _ in 0..shape.blocks {
        let a = r.gen_range(2..=shape.max_block);
        let c = r.gen_range(2..=shape.max_block);
        // Glue node: reuse an existing node as one member of the block
        // (after the first block).
        let glue: Option<NodeId> = if all_nodes.is_empty() {
            None
        } else {
            Some(all_nodes[r.gen_range(0..all_nodes.len())])
        };
        // The glue node joins the side it already has; fresh nodes fill
        // the rest of the block.
        let (mut left, mut right): (Vec<NodeId>, Vec<NodeId>) = (vec![], vec![]);
        if let Some(gv) = glue {
            match side[gv.index()] {
                Side::V1 => left.push(gv),
                Side::V2 => right.push(gv),
            }
        }
        while left.len() < a {
            let v = b.add_node(format!("L{}", side.len()));
            side.push(Side::V1);
            all_nodes.push(v);
            left.push(v);
        }
        while right.len() < c {
            let v = b.add_node(format!("R{}", side.len()));
            side.push(Side::V2);
            all_nodes.push(v);
            right.push(v);
        }
        for &x in &left {
            for &y in &right {
                b.add_edge(x, y).expect("ids valid");
            }
        }
    }
    BipartiteGraph::new(b.build(), side).expect("blocks respect sides")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_chordality::{classify_bipartite, is_six_two_chordal};
    use mcc_graph::is_connected;

    #[test]
    fn blocks_produce_six_two_graphs() {
        for seed in 0..10 {
            let bg = random_six_two_block_tree(BlockTreeShape::default(), seed);
            assert!(is_six_two_chordal(&bg), "seed {seed}");
            assert!(is_connected(bg.graph()), "seed {seed}");
        }
    }

    #[test]
    fn usually_not_six_one_trivial() {
        // The class sits strictly between forests and chordal bipartite:
        // check the generator actually produces cycles (not just trees).
        let bg = random_six_two_block_tree(
            BlockTreeShape {
                blocks: 4,
                max_block: 3,
            },
            1,
        );
        let c = classify_bipartite(&bg);
        assert!(!c.four_one, "blocks of size ≥ 2×2 contain C4s");
        assert!(c.six_two && c.six_one);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_six_two_block_tree(BlockTreeShape::default(), 5);
        let b = random_six_two_block_tree(BlockTreeShape::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn single_block_is_complete_bipartite() {
        let bg = random_six_two_block_tree(
            BlockTreeShape {
                blocks: 1,
                max_block: 2,
            },
            0,
        );
        let g = bg.graph();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.node_count(), 4);
    }
}
