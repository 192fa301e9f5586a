//! Mutable construction of [`Graph`] values.

use crate::labels::Labels;
use crate::{Graph, GraphError, NodeId};

/// Incremental builder for [`Graph`].
///
/// Nodes receive dense identifiers in insertion order. Edges may be added in
/// any order; parallel edges are merged and self-loops are rejected at
/// insertion time. [`GraphBuilder::build`] sorts and deduplicates the
/// adjacency lists, producing an immutable graph.
///
/// Nothing is allocated per node: labels are appended to one arena
/// string and edges to one flat list, which `build` counting-sorts by
/// endpoint into the graph's CSR rows.
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
    labels: Labels,
    /// Every edge as added, once, duplicates included.
    edges: Vec<(NodeId, NodeId)>,
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
    pub fn add_node(&mut self, label: impl AsRef<str>) -> NodeId {
        let id = NodeId::from_index(self.labels.len());
        self.labels.push(label.as_ref());
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
        self.edges.push((a, b));
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

    /// Finalizes the graph: counting-sorts both arcs of every edge into
    /// CSR rows, then sorts each row and merges parallel edges in place.
    ///
    /// # Panics
    /// Panics when the arcs added, parallel ones included, or the label
    /// bytes do not fit `u32` offsets.
    pub fn build(self) -> Graph {
        let n = self.labels.len();
        let arcs = 2 * self.edges.len();
        assert!(
            u32::try_from(arcs).is_ok(),
            "graph too large for u32 CSR offsets ({arcs} directed arcs)"
        );
        // Row `v` is `offsets[v]..offsets[v + 1]`: count each node's arcs
        // one slot up, then sum the counts into row starts.
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &self.edges {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Scatter with `offsets[v]` as row `v`'s cursor; each cursor ends
        // at the next row's start, so shifting the table back restores it.
        let mut targets = vec![NodeId(0); arcs];
        for &(a, b) in &self.edges {
            for (from, to) in [(a, b), (b, a)] {
                let cursor = &mut offsets[from.index()];
                targets[*cursor as usize] = to;
                *cursor += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort and deduplicate each row, compacting the rows forward.
        let (mut start, mut kept) = (0u32, 0u32);
        for v in 0..n {
            let end = offsets[v + 1];
            targets[start as usize..end as usize].sort_unstable();
            let row_start = kept;
            for k in start..end {
                let u = targets[k as usize];
                if kept == row_start || targets[kept as usize - 1] != u {
                    targets[kept as usize] = u;
                    kept += 1;
                }
            }
            offsets[v + 1] = kept;
            start = end;
        }
        targets.truncate(kept as usize);
        debug_assert_eq!(kept % 2, 0);
        Graph::from_parts(self.labels, offsets, targets, kept as usize / 2)
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
