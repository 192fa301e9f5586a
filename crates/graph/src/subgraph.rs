//! Induced subgraphs with node-id mappings back to the parent graph.

use crate::{Graph, NodeId, NodeSet};

/// An induced subgraph together with its embedding into the parent graph.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The induced subgraph, with dense ids of its own.
    pub graph: Graph,
    /// `to_parent[i]` is the parent-graph id of subgraph node `i`.
    pub to_parent: Vec<NodeId>,
    /// `from_parent[p] = Some(i)` when parent node `p` is included.
    pub from_parent: Vec<Option<NodeId>>,
}

impl InducedSubgraph {
    /// Maps a subgraph node back to the parent graph.
    pub fn parent_of(&self, v: NodeId) -> NodeId {
        self.to_parent[v.index()]
    }

    /// Maps a parent node into the subgraph, if included.
    pub fn child_of(&self, p: NodeId) -> Option<NodeId> {
        self.from_parent[p.index()]
    }
}

/// Builds the subgraph of `g` induced by `nodes`, preserving labels.
pub fn induced_subgraph(g: &Graph, nodes: &NodeSet) -> InducedSubgraph {
    let mut from_parent: Vec<Option<NodeId>> = vec![None; g.node_count()];
    let mut to_parent = Vec::with_capacity(nodes.len());
    let mut b = Graph::builder();
    for p in nodes.iter() {
        let id = b.add_node(g.label(p));
        from_parent[p.index()] = Some(id);
        to_parent.push(p);
    }
    for p in nodes.iter() {
        #[expect(
            clippy::expect_used,
            reason = "every member node was mapped in the loop above"
        )]
        let a = from_parent[p.index()].expect("member mapped");
        for &q in g.neighbors(p) {
            if q > p {
                if let Some(bq) = from_parent[q.index()] {
                    #[expect(
                        clippy::expect_used,
                        reason = "both endpoints were mapped when their nodes were added above"
                    )]
                    b.add_edge(a, bq).expect("mapped ids valid");
                }
            }
        }
    }
    InducedSubgraph {
        graph: b.build(),
        to_parent,
        from_parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn induces_square_from_house() {
        // House: square 0-1-2-3 plus apex 4 adjacent to 2,3.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)]);
        let keep = NodeSet::from_nodes(5, (0..4).map(NodeId));
        let sub = induced_subgraph(&g, &keep);
        assert_eq!(sub.graph.node_count(), 4);
        assert_eq!(sub.graph.edge_count(), 4);
        assert_eq!(sub.child_of(NodeId(4)), None);
        let two = sub.child_of(NodeId(2)).unwrap();
        assert_eq!(sub.parent_of(two), NodeId(2));
        assert_eq!(sub.graph.label(two), "2");
    }

    #[test]
    fn empty_induced_subgraph() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let sub = induced_subgraph(&g, &NodeSet::new(3));
        assert!(sub.graph.is_empty());
    }

    #[test]
    fn non_adjacent_selection_gives_edgeless_graph() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let keep = NodeSet::from_nodes(4, [NodeId(0), NodeId(2)]);
        let sub = induced_subgraph(&g, &keep);
        assert_eq!(sub.graph.node_count(), 2);
        assert_eq!(sub.graph.edge_count(), 0);
    }
}
