//! Vᵢ-conformity (Definition 5).
//!
//! `G` is Vᵢ-conformal when every set `S ⊆ V_{3-i}` of nodes at mutual
//! distance 2 admits a witness `w ∈ Vᵢ` adjacent to every node of `S`.
//! Via Fact (b) in the proof of Theorem 1 this is exactly conformality of
//! the hypergraph whose edges are contributed by the witness side
//! (`H¹_G` for `V₂`-conformity, `H²_G` for `V₁`-conformity).

use crate::chordal_bipartite::drop_isolated_v2;
use crate::project_onto;
use mcc_graph::{BipartiteGraph, Side, Workspace};
use mcc_hypergraph::conformal::maximal_cliques;
use mcc_hypergraph::{h1_of_bipartite, side_conformality_violation_in, Hypergraph};

/// Builds the hypergraph whose **edges** come from side `witness_side` of
/// `bg` (so `witness_side = V2` gives `H¹_G`), dropping isolated
/// witness-side nodes, which would contribute empty edges and carry no
/// conformality information. The labelled object behind the
/// differential tests; the recognizers read `bg` directly.
pub fn hypergraph_of_witness_side(bg: &BipartiteGraph, witness_side: Side) -> Hypergraph {
    let oriented = match witness_side {
        Side::V2 => bg.clone(),
        Side::V1 => bg.swap_sides(),
    };
    let cleaned = drop_isolated_v2(&oriented);
    #[expect(
        clippy::expect_used,
        reason = "`h1_of_bipartite` fails only on isolated V2 nodes, just dropped"
    )]
    let (h, _, _) = h1_of_bipartite(&cleaned).expect("isolated edge-side nodes dropped");
    h
}

/// Production Vᵢ-conformity: Gilmore's criterion on the witness-side
/// hypergraph, read straight off `bg`.
///
/// Thin wrapper over [`is_vi_conformal_in`] with a transient workspace.
pub fn is_vi_conformal(bg: &BipartiteGraph, witness_side: Side) -> bool {
    is_vi_conformal_in(&mut Workspace::new(), bg, witness_side)
}

/// [`is_vi_conformal`] through a workspace. Gilmore's scan runs on the
/// witness-side nodes' neighborhoods as the edges and `neighbors(v)` as
/// the incidence lists ([`side_conformality_violation_in`]), with no
/// labelled hypergraph or side-swapped copy; a warm call allocates
/// nothing.
pub fn is_vi_conformal_in(ws: &mut Workspace, bg: &BipartiteGraph, witness_side: Side) -> bool {
    !side_conformality_violation_in(ws, bg, witness_side, None)
}

/// The witness version: a set `S ⊆ V_{3-i}` of nodes at mutual distance
/// 2 that **no** single `Vᵢ` node covers — the concrete violation behind
/// a negative Vᵢ-conformity verdict, in the ids of `bg`. `None` when
/// conformal.
pub fn find_vi_conformality_violation(
    bg: &BipartiteGraph,
    witness_side: Side,
) -> Option<mcc_graph::NodeSet> {
    let mut witness = mcc_graph::NodeSet::new(bg.graph().node_count());
    side_conformality_violation_in(&mut Workspace::new(), bg, witness_side, Some(&mut witness))
        .then_some(witness)
}

/// Definitional Vᵢ-conformity: sets of `V_{3-i}` nodes at mutual distance
/// 2 are exactly the cliques of the projection onto `V_{3-i}`, and it
/// suffices to cover the maximal ones. Exponential (clique enumeration);
/// ground truth for tests.
pub fn is_vi_conformal_bruteforce(bg: &BipartiteGraph, witness_side: Side) -> bool {
    let g = bg.graph();
    let (proj, to_parent) = project_onto(bg, witness_side.opposite());
    maximal_cliques(&proj).iter().all(|clique| {
        if clique.len() <= 1 {
            return true; // no co-occurrence constraint
        }
        let members: Vec<_> = clique.iter().map(|v| to_parent[v.index()]).collect();
        bg.side_nodes(witness_side)
            .any(|w| members.iter().all(|&s| g.has_edge(w, s)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::bipartite::bipartite_from_lists;
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::BipartiteGraph;

    #[test]
    fn triangle_of_pairwise_witnesses_is_not_conformal() {
        // x1, x2, x3 pairwise at distance 2 (via y12, y23, y31) but no
        // single V2 witness adjacent to all three.
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y12", "y23", "y31"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        assert!(!is_vi_conformal(&bg, Side::V2));
        assert!(!is_vi_conformal_bruteforce(&bg, Side::V2));
        // Adding a hub adjacent to all three restores V2-conformity.
        let bg2 = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y12", "y23", "y31", "hub"],
            &[
                (0, 0),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (0, 2),
                (0, 3),
                (1, 3),
                (2, 3),
            ],
        );
        assert!(is_vi_conformal(&bg2, Side::V2));
        assert!(is_vi_conformal_bruteforce(&bg2, Side::V2));
    }

    #[test]
    fn v1_conformity_is_the_swapped_property() {
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y12", "y23", "y31"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        // By symmetry this graph (a 6-cycle) is also not V1-conformal:
        // the y's are pairwise at distance 2 with no common x.
        assert!(!is_vi_conformal(&bg, Side::V1));
        assert!(!is_vi_conformal_bruteforce(&bg, Side::V1));
        assert_eq!(
            is_vi_conformal(&bg, Side::V1),
            is_vi_conformal(&bg.swap_sides(), Side::V2)
        );
    }

    #[test]
    fn trees_are_conformal_both_sides() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let bg = BipartiteGraph::from_graph(g).unwrap();
        for side in [Side::V1, Side::V2] {
            assert!(is_vi_conformal(&bg, side));
            assert!(is_vi_conformal_bruteforce(&bg, side));
        }
    }

    #[test]
    fn isolated_witness_nodes_ignored() {
        let bg = bipartite_from_lists(&["a", "b"], &["y", "dead"], &[(0, 0), (1, 0)]);
        assert!(is_vi_conformal(&bg, Side::V2));
        assert!(is_vi_conformal_bruteforce(&bg, Side::V2));
    }

    #[test]
    fn conformality_violation_witness_checks_out() {
        // The witnessless 6-cycle: {x1,x2,x3} pairwise at distance 2, no
        // common V2 neighbor.
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y12", "y23", "y31"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        let w = find_vi_conformality_violation(&bg, Side::V2).expect("not conformal");
        let g = bg.graph();
        // All witness members on V1, pairwise at distance 2, uncovered.
        assert!(w.len() >= 2);
        for v in w.iter() {
            assert_eq!(bg.side(v), Side::V1);
        }
        let members: Vec<_> = w.to_vec();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let share = g.neighbors(a).iter().any(|&y| g.has_edge(b, y));
                assert!(share, "members must be at mutual distance 2");
            }
        }
        assert!(
            !bg.side_nodes(Side::V2)
                .any(|y| members.iter().all(|&v| g.has_edge(y, v))),
            "the violation must really be uncovered"
        );
        // Conformal graphs yield no witness.
        let ok = bipartite_from_lists(&["a", "b"], &["r"], &[(0, 0), (1, 0)]);
        assert!(find_vi_conformality_violation(&ok, Side::V2).is_none());
    }

    #[test]
    fn production_matches_definition_on_k33_subgraphs() {
        let pool: Vec<(usize, usize)> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, 3 + j)))
            .collect();
        for mask in 0u32..(1 << 9) {
            let edges: Vec<(usize, usize)> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let g = graph_from_edges(6, &edges);
            let bg = BipartiteGraph::from_graph(g).expect("bipartite");
            for side in [Side::V1, Side::V2] {
                assert_eq!(
                    is_vi_conformal(&bg, side),
                    is_vi_conformal_bruteforce(&bg, side),
                    "side={side:?} mask={mask}"
                );
            }
        }
    }
}
