//! The bipartite-graph ⟷ hypergraph correspondences of Definition 2.
//!
//! Given a bipartite graph `G = (V1, V2, A)`:
//!
//! * `H¹_G` has **nodes** `V1` and one **edge per `V2`-node** — the set of
//!   `V1`-neighbors of that node ([`h1_of_bipartite`]);
//! * `H²_G` is the symmetric construction ([`h2_of_bipartite`]);
//! * conversely, every hypergraph yields its *incidence bipartite graph*
//!   with `V1` = nodes, `V2` = edges ([`incidence_bipartite`]), which
//!   inverts `h1` up to labels.
//!
//! `H²_G` is the dual of `H¹_G` (remark after Definition 3) — asserted in
//! tests here and exploited throughout the workspace.

use crate::{EdgeId, Hypergraph, HypergraphError};
use mcc_graph::{bipartite::bipartite_from_lists, BipartiteGraph, NodeId, NodeSet, Side};

/// Builds the hypergraph corresponding to `g` with respect to `(V1, V2)` —
/// the paper's `H¹_G`: nodes are the `V1`-nodes of `g`, and each `V2`-node
/// contributes the edge consisting of its neighbors.
///
/// Fails with [`HypergraphError::IsolatedEdgeSideNode`] if some `V2`-node
/// has no neighbors (its edge would be empty). Isolated `V1`-nodes are
/// fine — they become isolated hypergraph nodes.
///
/// Also returns the mapping from hypergraph ids back to graph ids:
/// `(node_map, edge_map)` with `node_map[i]` the graph id of hypergraph
/// node `i` and `edge_map[j]` the graph id of the `V2`-node behind edge
/// `j`.
pub fn h1_of_bipartite(
    g: &BipartiteGraph,
) -> Result<(Hypergraph, Vec<NodeId>, Vec<NodeId>), HypergraphError> {
    without_isolated(g, Side::V2)
}

/// The symmetric construction `H²_G` (nodes = `V2`, one edge per
/// `V1`-node), index-identical to `h1_of_bipartite(&g.swap_sides())`.
pub fn h2_of_bipartite(
    g: &BipartiteGraph,
) -> Result<(Hypergraph, Vec<NodeId>, Vec<NodeId>), HypergraphError> {
    without_isolated(g, Side::V1)
}

/// [`side_hypergraph`], or the first isolated `edge_side` node as an
/// error.
fn without_isolated(
    g: &BipartiteGraph,
    edge_side: Side,
) -> Result<(Hypergraph, Vec<NodeId>, Vec<NodeId>), HypergraphError> {
    match g.side_nodes(edge_side).find(|&w| g.graph().degree(w) == 0) {
        Some(w) => Err(HypergraphError::IsolatedEdgeSideNode(w)),
        None => Ok(side_hypergraph(g, edge_side)),
    }
}

/// The hypergraph whose edges come from `edge_side`: its nodes are the
/// opposite side's nodes in id order (isolated ones included), and each
/// `edge_side` node with at least one neighbor contributes the edge of
/// its neighbors, in id order. Isolated `edge_side` nodes are skipped
/// rather than rejected, so this is `H¹_G` (`edge_side = V2`) or `H²_G`
/// (`V1`) of `g` with those nodes dropped. Returns `(h, node_map,
/// edge_map)` as [`h1_of_bipartite`] does.
#[expect(
    clippy::expect_used,
    reason = "a bipartite node's neighbors all lie on the opposite side, which `node_index` covers"
)]
pub fn side_hypergraph(
    g: &BipartiteGraph,
    edge_side: Side,
) -> (Hypergraph, Vec<NodeId>, Vec<NodeId>) {
    let graph = g.graph();
    let mut node_map: Vec<NodeId> = Vec::new();
    let mut node_index = vec![usize::MAX; graph.node_count()];
    for v in g.side_nodes(edge_side.opposite()) {
        node_index[v.index()] = node_map.len();
        node_map.push(v);
    }
    let mut b = Hypergraph::builder();
    for &v in &node_map {
        b.add_node(graph.label(v));
    }
    let mut edge_map = Vec::new();
    for w in g.side_nodes(edge_side).filter(|&w| graph.degree(w) > 0) {
        b.add_edge(
            graph.label(w),
            graph
                .neighbors(w)
                .iter()
                .map(|&u| NodeId::from_index(node_index[u.index()])),
        )
        .expect("neighbors lie on the node side");
        edge_map.push(w);
    }
    (b.build(), node_map, edge_map)
}

/// The incidence bipartite graph of a hypergraph: `V1` = nodes of `h`,
/// `V2` = edges of `h`, with an arc for each membership. Inverts
/// [`h1_of_bipartite`]: `h1_of_bipartite(incidence_bipartite(h)).0` is
/// index-identical to `h`.
pub fn incidence_bipartite(h: &Hypergraph) -> BipartiteGraph {
    let v1_labels: Vec<&str> = h.nodes().map(|v| h.node_label(v)).collect();
    let v2_labels: Vec<&str> = h.edge_ids().map(|e| h.edge_label(e)).collect();
    let mut edges = Vec::with_capacity(h.total_size());
    for e in h.edge_ids() {
        for v in h.edge(e).iter() {
            edges.push((v.index(), e.index()));
        }
    }
    bipartite_from_lists(&v1_labels, &v2_labels, &edges)
}

/// Convenience for tests and figures: the node set of hyperedge `e` lifted
/// back into graph ids via the `node_map` returned by [`h1_of_bipartite`].
pub fn edge_in_graph_ids(
    h: &Hypergraph,
    node_map: &[NodeId],
    e: EdgeId,
    graph_node_count: usize,
) -> NodeSet {
    NodeSet::from_nodes(
        graph_node_count,
        h.edge(e).iter().map(|v| node_map[v.index()]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::{dual, index_identical};

    /// The paper's Fig. 2(a): V1 = {A..F}, V2 = {1..4}.
    fn fig2a() -> BipartiteGraph {
        bipartite_from_lists(
            &["A", "B", "C", "D", "E", "F"],
            &["1", "2", "3", "4"],
            &[
                (0, 0), // A-1
                (1, 0), // B-1
                (1, 1), // B-2
                (2, 0), // C-1
                (2, 2), // C-3
                (3, 1), // D-2
                (4, 1), // E-2
                (4, 2), // E-3
                (5, 2), // F-3
                (3, 3), // D-4
                (5, 3), // F-4
            ],
        )
    }

    #[test]
    fn h1_edges_are_neighborhoods() {
        let g = fig2a();
        let (h, node_map, edge_map) = h1_of_bipartite(&g).unwrap();
        assert_eq!(h.node_count(), 6);
        assert_eq!(h.edge_count(), 4);
        // Edge "1" = {A, B, C}.
        let e1 = h.edge_by_label("1").unwrap();
        let members: Vec<&str> = h.edge(e1).iter().map(|v| h.node_label(v)).collect();
        assert_eq!(members, vec!["A", "B", "C"]);
        // Maps point back at the right graph nodes.
        assert_eq!(g.graph().label(node_map[0]), "A");
        assert_eq!(g.graph().label(edge_map[e1.index()]), "1");
    }

    #[test]
    fn h2_is_dual_of_h1() {
        let g = fig2a();
        let (h1, _, _) = h1_of_bipartite(&g).unwrap();
        let (h2, _, _) = h2_of_bipartite(&g).unwrap();
        let d = dual(&h1).unwrap();
        assert!(index_identical(&d, &h2));
    }

    #[test]
    fn side_hypergraph_skips_isolated_edge_side_nodes() {
        // Isolated `2` is skipped; `V1` gives H² with isolated `B` skipped.
        let g = bipartite_from_lists(&["A", "B"], &["1", "2"], &[(0, 0)]);
        let (h, node_map, edge_map) = side_hypergraph(&g, Side::V2);
        assert_eq!((h.node_count(), h.edge_count()), (2, 1));
        assert_eq!(node_map, vec![NodeId(0), NodeId(1)]);
        assert_eq!(edge_map, vec![NodeId(2)]);
        let (h, node_map, edge_map) = side_hypergraph(&g, Side::V1);
        assert_eq!((h.node_count(), h.edge_count()), (2, 1));
        assert_eq!(node_map, vec![NodeId(2), NodeId(3)]);
        assert_eq!(edge_map, vec![NodeId(0)]);
        // `V1` as the edge side is `V2` on the swapped graph.
        let g = fig2a();
        assert!(index_identical(
            &side_hypergraph(&g, Side::V1).0,
            &h1_of_bipartite(&g.swap_sides()).unwrap().0
        ));
    }

    #[test]
    fn isolated_v2_node_rejected() {
        let g = bipartite_from_lists(&["A"], &["1", "2"], &[(0, 0)]);
        let err = h1_of_bipartite(&g).unwrap_err();
        assert!(matches!(err, HypergraphError::IsolatedEdgeSideNode(_)));
    }

    #[test]
    fn isolated_v1_node_becomes_isolated_hypergraph_node() {
        let g = bipartite_from_lists(&["A", "B"], &["1"], &[(0, 0)]);
        let (h, node_map, _) = h1_of_bipartite(&g).unwrap();
        assert_eq!(h.node_count(), 2);
        let b = h.node_by_label("B").unwrap();
        assert!(h.is_isolated(b));
        assert_eq!(node_map.len(), 2);
    }

    #[test]
    fn incidence_roundtrip() {
        let g = fig2a();
        let (h, _, _) = h1_of_bipartite(&g).unwrap();
        let gi = incidence_bipartite(&h);
        let (h_again, _, _) = h1_of_bipartite(&gi).unwrap();
        assert!(index_identical(&h, &h_again));
    }

    #[test]
    fn edge_in_graph_ids_lifts_correctly() {
        let g = fig2a();
        let (h, node_map, _) = h1_of_bipartite(&g).unwrap();
        let e1 = h.edge_by_label("1").unwrap();
        let lifted = edge_in_graph_ids(&h, &node_map, e1, g.graph().node_count());
        let labels: Vec<&str> = lifted.iter().map(|v| g.graph().label(v)).collect();
        assert_eq!(labels, vec!["A", "B", "C"]);
    }
}
