//! Mutable construction of [`Graph`] values.

use crate::{Graph, GraphError, NodeId};

/// Incremental builder for [`Graph`].
///
/// Nodes receive dense identifiers in insertion order. Edges may be added in
/// any order; parallel edges are merged and self-loops are rejected at
/// insertion time. [`GraphBuilder::build`] sorts and deduplicates the
/// adjacency lists, producing an immutable graph.
///
/// ```
/// use mcc_graph::Graph;
/// let mut b = Graph::builder();
/// let a = b.add_node("A");
/// let c = b.add_node("C");
/// b.add_edge(a, c).unwrap();
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert!(g.has_edge(a, c));
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    labels: Vec<String>,
    adj: Vec<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-populated with `n` nodes labelled by their
    /// index.
    pub fn with_nodes(n: usize) -> Self {
        let mut b = Self::new();
        for i in 0..n {
            b.add_node(i.to_string());
        }
        b
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Adds a node and returns its identifier.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId::from_index(self.labels.len());
        self.labels.push(label.into());
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected edge between `a` and `b`.
    ///
    /// Adding the same edge twice is permitted (it is merged at build time);
    /// self-loops and out-of-range endpoints are rejected.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        for v in [a, b] {
            if v.index() >= self.labels.len() {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    node_count: self.labels.len(),
                });
            }
        }
        self.adj[a.index()].push(b);
        self.adj[b.index()].push(a);
        Ok(())
    }

    /// Convenience: adds every edge in `edges`.
    pub fn add_edges(
        &mut self,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<(), GraphError> {
        for (a, b) in edges {
            self.add_edge(a, b)?;
        }
        Ok(())
    }

    /// Finalizes the graph: sorts adjacency lists, merges parallel edges.
    pub fn build(mut self) -> Graph {
        let mut num_edges = 0;
        for list in &mut self.adj {
            list.sort_unstable();
            list.dedup();
            num_edges += list.len();
        }
        debug_assert_eq!(num_edges % 2, 0);
        Graph::from_parts(self.labels, self.adj, num_edges / 2)
    }
}

/// Builds a graph from a node count and an edge list over dense indices.
///
/// This is the workhorse constructor for tests and generators:
///
/// ```
/// let g = mcc_graph::builder::graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.edge_count(), 4);
/// ```
///
/// # Panics
/// Panics on self-loops or out-of-range endpoints (programmer error in
/// fixed test data).
pub fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::with_nodes(n);
    for &(a, bb) in edges {
        #[expect(
            clippy::expect_used,
            reason = "static fixture constructor: malformed compile-time edge lists must fail loudly"
        )]
        b.add_edge(NodeId::from_index(a), NodeId::from_index(bb))
            .expect("invalid edge in static edge list");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_edges_are_merged() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        b.add_edge(NodeId(1), NodeId(0)).unwrap();
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::with_nodes(1);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(0)),
            Err(GraphError::SelfLoop(NodeId(0)))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::with_nodes(1);
        let err = b.add_edge(NodeId(0), NodeId(5)).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId(5),
                node_count: 1
            }
        );
    }

    #[test]
    fn add_edges_bulk() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edges([(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))])
            .unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn with_nodes_labels_by_index() {
        let b = GraphBuilder::with_nodes(3);
        let g = b.build();
        assert_eq!(g.label(NodeId(2)), "2");
    }

    #[test]
    fn graph_from_edges_works() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }
}
