//! The primal (2-section) graph `G(H)` of a hypergraph (Definition 7).

use crate::Hypergraph;
use mcc_graph::Graph;

/// Builds `G(H)`: same nodes as `H`, with an arc between every pair of
/// nodes that co-occur in some edge of `H` (Definition 7). Node ids and
/// labels are preserved.
pub fn primal_graph(h: &Hypergraph) -> Graph {
    let mut b = Graph::builder();
    for v in h.nodes() {
        b.add_node(h.node_label(v));
    }
    for e in h.edge_ids() {
        let members = h.edge(e).to_vec();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                #[expect(
                    clippy::expect_used,
                    reason = "hyperedge members are valid node ids of the same hypergraph"
                )]
                b.add_edge(members[i], members[j])
                    .expect("members are valid nodes");
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;
    use mcc_graph::NodeId;

    #[test]
    fn single_edge_becomes_clique() {
        let h = hypergraph_from_lists(&["a", "b", "c"], &[("e", &[0, 1, 2])]);
        let g = primal_graph(&h);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn overlapping_edges_merge_arcs() {
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[0, 1]), ("z", &[1, 2])],
        );
        let g = primal_graph(&h);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(2)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn isolated_nodes_survive() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0])]);
        let g = primal_graph(&h);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.degree(NodeId(1)), 0);
        assert_eq!(g.label(NodeId(1)), "b");
    }
}
