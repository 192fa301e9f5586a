//! Problem and solution types.

use mcc_graph::{is_connected_within, Graph, NodeId, NodeSet};

/// A Steiner problem instance: a graph plus the terminal set `P̄`
/// (Definition 8 calls it `P`; we follow the later sections' `P̄`).
#[derive(Debug, Clone)]
pub struct SteinerInstance {
    /// The host graph.
    pub graph: Graph,
    /// The terminals to connect.
    pub terminals: NodeSet,
}

impl SteinerInstance {
    /// Builds an instance.
    ///
    /// # Panics
    /// Panics if the terminal set's universe does not match the graph.
    pub fn new(graph: Graph, terminals: NodeSet) -> Self {
        assert_eq!(
            terminals.capacity(),
            graph.node_count(),
            "terminal set universe must match the graph"
        );
        SteinerInstance { graph, terminals }
    }

    /// `true` when all terminals lie in one connected component (the
    /// precondition for any tree over them to exist).
    pub fn is_feasible(&self) -> bool {
        if self.terminals.is_empty() {
            return true;
        }
        #[expect(
            clippy::expect_used,
            reason = "the empty-terminal case returned `true` above"
        )]
        let start = self.terminals.first().expect("nonempty");
        let comp = mcc_graph::connectivity::component_of(
            &self.graph,
            &NodeSet::full(self.graph.node_count()),
            start,
        );
        self.terminals.is_subset_of(&comp)
    }
}

/// A (candidate) Steiner tree: a set of nodes plus tree edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SteinerTree {
    /// All nodes of the tree (terminals and auxiliary nodes).
    pub nodes: NodeSet,
    /// The tree edges (`nodes.len() - 1` of them for nonempty trees).
    pub edges: Vec<(NodeId, NodeId)>,
}

impl SteinerTree {
    /// Builds a tree from an alive node set by taking a spanning tree;
    /// `None` when the induced subgraph is disconnected.
    pub fn from_cover(g: &Graph, cover: &NodeSet) -> Option<SteinerTree> {
        let edges = mcc_graph::spanning_tree(g, cover)?;
        Some(SteinerTree {
            nodes: cover.clone(),
            edges,
        })
    }

    /// Number of nodes — the cost the Steiner problem minimizes.
    pub fn node_cost(&self) -> usize {
        self.nodes.len()
    }

    /// Structural validity: edges are graph edges between tree nodes, the
    /// edge count is `|nodes| - 1`, and the edge set connects the nodes.
    pub fn is_valid_tree(&self, g: &Graph) -> bool {
        if self.nodes.is_empty() {
            return self.edges.is_empty();
        }
        if self.edges.len() + 1 != self.nodes.len() {
            return false;
        }
        for &(a, b) in &self.edges {
            if !g.has_edge(a, b) || !self.nodes.contains(a) || !self.nodes.contains(b) {
                return false;
            }
        }
        // n-1 edges + connected ⟹ tree. Check connectivity on the edge
        // set alone (not the induced subgraph, which may have more edges).
        let mut builder = Graph::builder();
        for _ in 0..self.nodes.capacity() {
            builder.add_node("");
        }
        for &(a, b) in &self.edges {
            #[expect(
                clippy::expect_used,
                reason = "edge endpoints were range-checked above"
            )]
            builder.add_edge(a, b).expect("checked above");
        }
        let skeleton = builder.build();
        is_connected_within(&skeleton, &self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;

    fn p4() -> Graph {
        graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn feasibility() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let inst = SteinerInstance::new(g.clone(), NodeSet::from_nodes(4, [NodeId(0), NodeId(1)]));
        assert!(inst.is_feasible());
        let inst = SteinerInstance::new(g, NodeSet::from_nodes(4, [NodeId(0), NodeId(3)]));
        assert!(!inst.is_feasible());
    }

    #[test]
    fn empty_terminals_feasible() {
        let inst = SteinerInstance::new(p4(), NodeSet::new(4));
        assert!(inst.is_feasible());
    }

    #[test]
    fn from_cover_builds_valid_tree() {
        let g = p4();
        let cover = NodeSet::from_nodes(4, (0..3).map(NodeId));
        let t = SteinerTree::from_cover(&g, &cover).unwrap();
        assert!(t.is_valid_tree(&g));
        assert_eq!(t.node_cost(), 3);
        assert_eq!(t.edges.len(), 2);
    }

    #[test]
    fn from_cover_rejects_disconnected() {
        let g = p4();
        let cover = NodeSet::from_nodes(4, [NodeId(0), NodeId(3)]);
        assert!(SteinerTree::from_cover(&g, &cover).is_none());
    }

    #[test]
    fn validity_catches_corruption() {
        let g = p4();
        let cover = NodeSet::from_nodes(4, (0..3).map(NodeId));
        let mut t = SteinerTree::from_cover(&g, &cover).unwrap();
        // Too few edges.
        t.edges.pop();
        assert!(!t.is_valid_tree(&g));
        // Edge not in graph.
        let t2 = SteinerTree {
            nodes: NodeSet::from_nodes(4, [NodeId(0), NodeId(2)]),
            edges: vec![(NodeId(0), NodeId(2))],
        };
        assert!(!t2.is_valid_tree(&g));
        // Cycle disguised as tree (duplicate edge): edge count mismatch.
        let t3 = SteinerTree {
            nodes: NodeSet::from_nodes(4, (0..3).map(NodeId)),
            edges: vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(1))],
        };
        assert!(!t3.is_valid_tree(&g));
    }

    #[test]
    fn empty_tree_is_valid() {
        let t = SteinerTree {
            nodes: NodeSet::new(4),
            edges: vec![],
        };
        assert!(t.is_valid_tree(&p4()));
    }
}
