//! Side-aware pseudo-Steiner entry points (Definition 9, Corollary 4).

use crate::{algorithm1, Algorithm1Error, SteinerTree};
use mcc_graph::{BipartiteGraph, NodeSet, Side};

/// Result of a pseudo-Steiner solve.
#[derive(Debug, Clone)]
pub struct PseudoSolution {
    /// The tree over the terminals.
    pub tree: SteinerTree,
    /// Number of minimized-side nodes in the tree.
    pub side_cost: usize,
}

/// Solves the pseudo-Steiner problem w.r.t. `side`: minimizes the number
/// of tree nodes on that side (`V2` is the "minimize relations" reading).
///
/// * `side = V2`: Algorithm 1 directly (Theorems 3–4); requires `H¹_G`
///   α-acyclic (the graph V₂-chordal and V₂-conformal).
/// * `side = V1`: Algorithm 1 on the side-swapped graph — the paper's
///   "the results also hold replacing V₁ with V₂" remark, which is also
///   how Corollary 4 obtains polynomial pseudo-Steiner w.r.t. `V1` on
///   (6,1)-chordal graphs (via Corollary 2, those are V₁-chordal and
///   V₁-conformal, i.e. `H²` is α-acyclic).
pub fn pseudo_steiner(
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    side: Side,
) -> Result<PseudoSolution, Algorithm1Error> {
    let out = match side {
        Side::V2 => algorithm1(bg, terminals)?,
        Side::V1 => algorithm1(&bg.swap_sides(), terminals)?,
    };
    Ok(PseudoSolution {
        tree: out.tree,
        side_cost: out.v2_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate as mcc_steiner_self;
    use crate::cover::side_minimum_cover_bruteforce;
    use mcc_graph::bipartite::bipartite_from_lists;
    use mcc_graph::NodeId;

    /// A chordal bipartite ((6,1)) graph — C6 with one chord — for which
    /// Corollary 4 promises polynomial pseudo-Steiner on both sides.
    fn six_one_graph() -> BipartiteGraph {
        bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (1, 2)],
        )
    }

    #[test]
    fn both_sides_solvable_on_six_one_graphs() {
        let bg = six_one_graph();
        let n = bg.graph().node_count();
        let terminals = NodeSet::from_nodes(n, [NodeId(0), NodeId(2)]); // x1, x3
        for side in [Side::V1, Side::V2] {
            let sol = pseudo_steiner(&bg, &terminals, side).expect("Corollary 4 applies");
            assert!(sol.tree.is_valid_tree(bg.graph()));
            assert!(terminals.is_subset_of(&sol.tree.nodes));
            let side_set = match side {
                Side::V1 => bg.v1_set(),
                Side::V2 => bg.v2_set(),
            };
            let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &side_set).unwrap();
            assert_eq!(
                sol.side_cost,
                bf.intersection(&side_set).len(),
                "side={side:?}"
            );
        }
    }

    #[test]
    fn side_cost_counts_the_right_side() {
        let bg = six_one_graph();
        let n = bg.graph().node_count();
        let terminals = NodeSet::from_nodes(n, [NodeId(0), NodeId(1)]); // x1, x2
        let sol = pseudo_steiner(&bg, &terminals, Side::V2).unwrap();
        // x1 and x2 connect through one relation node (y1).
        assert_eq!(sol.side_cost, 1);
        let sol = pseudo_steiner(&bg, &terminals, Side::V1).unwrap();
        // Tree x1-y1-x2 has two V1 nodes (the terminals themselves).
        assert_eq!(sol.side_cost, 2);
    }

    #[test]
    fn pseudo_minimum_need_not_be_steiner_minimum() {
        // The paper's remark after Corollary 4: Algorithm 1 cannot be
        // used for the full Steiner problem — a V2-minimum cover can
        // carry redundant V1 passengers. Here {A, B, C, s} is V2-minimum
        // (one relation) yet bigger than the Steiner optimum {A, r, B}.
        let bg = bipartite_from_lists(
            &["A", "B", "C"],
            &["r", "s"],
            &[(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)],
        );
        let g = bg.graph();
        let n = g.node_count();
        let id = |l: &str| g.node_by_label(l).unwrap();
        let terminals = NodeSet::from_nodes(n, [id("A"), id("B")]);

        // The bloated V2-minimum cover.
        let bloated = NodeSet::from_nodes(n, [id("A"), id("B"), id("C"), id("s")]);
        assert!(mcc_graph::is_cover(g, &bloated, &terminals));
        assert_eq!(bloated.intersection(&bg.v2_set()).len(), 1);
        // It matches the V2 optimum…
        let v2_min = side_minimum_cover_bruteforce(g, &terminals, &bg.v2_set()).unwrap();
        assert_eq!(v2_min.intersection(&bg.v2_set()).len(), 1);
        // …but not the node optimum.
        let node_min = mcc_steiner_self::minimum_cover_bruteforce(g, &terminals).unwrap();
        assert_eq!(node_min.len(), 3);
        assert!(bloated.len() > node_min.len());

        // Algorithm 1 still delivers a V2-minimum tree (its actual
        // contract); node count is allowed to exceed the Steiner optimum.
        let sol = pseudo_steiner(&bg, &terminals, Side::V2).unwrap();
        assert_eq!(sol.side_cost, 1);
        assert!(sol.tree.node_cost() >= node_min.len());
    }
}
