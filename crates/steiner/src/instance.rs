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
    /// Builds a tree from an alive node set by taking its BFS spanning
    /// tree from the least node ([`mcc_graph::spanning_tree`]); `None`
    /// when the induced subgraph is disconnected. Two allocations: the
    /// tree's node set and its edge list.
    pub fn from_cover(g: &Graph, cover: &NodeSet) -> Option<SteinerTree> {
        let (nodes, edges) = mcc_graph::spanning_tree(g, cover)?;
        Some(SteinerTree { nodes, edges })
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

    /// The textbook tail: a `VecDeque` BFS from the least cover node,
    /// neighbours in increasing id, and the cover itself as the node set.
    fn textbook_from_cover(g: &Graph, cover: &NodeSet) -> Option<SteinerTree> {
        let mut edges = Vec::new();
        if let Some(start) = cover.first() {
            let mut seen = NodeSet::from_nodes(g.node_count(), [start]);
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &u in g.neighbors(v) {
                    if cover.contains(u) && seen.insert(u) {
                        edges.push((v, u));
                        queue.push_back(u);
                    }
                }
            }
            if seen != *cover {
                return None;
            }
        }
        Some(SteinerTree {
            nodes: cover.clone(),
            edges,
        })
    }

    #[test]
    fn from_cover_is_the_textbook_bfs_tree_edge_for_edge() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let (mut connected, mut disconnected) = (0, 0);
        for round in 0..300 {
            let n = rng.gen_range(1..=80);
            let edges: Vec<_> = (0..rng.gen_range(0..3 * n))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .filter(|(x, y)| x != y)
                .collect();
            let mut g = graph_from_edges(n, &edges);
            // As built, then all dense rows, then pure CSR.
            g.rebuild_bit_rows([Graph::default_dense_threshold(n), 0, usize::MAX][round % 3]);
            for _ in 0..4 {
                let keep = rng.gen_range(1..=4u32);
                let mut cover = NodeSet::from_nodes(
                    n,
                    (0..n as u32)
                        .filter(|_| rng.gen_range(0..4u32) < keep)
                        .map(NodeId),
                );
                // Every other cover is cut down to one of its components.
                if rng.gen_bool(0.5) {
                    if let Some(v) = cover.first() {
                        cover = mcc_graph::connectivity::component_of(&g, &cover, v);
                    }
                }
                let want = textbook_from_cover(&g, &cover);
                if want.is_some() {
                    connected += 1;
                } else {
                    disconnected += 1;
                }
                assert_eq!(SteinerTree::from_cover(&g, &cover), want, "{g:?} {cover:?}");
            }
        }
        assert!(
            connected > 100 && disconnected > 100,
            "{connected} {disconnected}"
        );
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
