//! Bipartite graphs with a certified two-sided partition.

use crate::{Graph, GraphError, NodeId, NodeSet};

/// The side of a node in a bipartition `(V1, V2)`.
///
/// The paper's conventions are directional: `V1`-chordality speaks about
/// cycles being shortcut *through* `V1` nodes, Algorithm 1 eliminates `V2`
/// nodes, and the hypergraph `H¹` has its **nodes** drawn from `V1` and its
/// **edges** from `V2`. Keeping the side explicit (rather than "left/right")
/// avoids a whole class of off-by-one-side bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Member of the first class `V1`.
    V1,
    /// Member of the second class `V2`.
    V2,
}

impl Side {
    /// The other side.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::V1 => Side::V2,
            Side::V2 => Side::V1,
        }
    }
}

/// A simple undirected graph together with a certified bipartition
/// `(V1, V2)` — the triple `(V1, V2, A)` of Definition 1.
///
/// Invariant (checked at construction): no edge joins two nodes of the same
/// side. Isolated nodes may be assigned to either side; the partition is
/// therefore part of the *value*, not derived from the graph — the paper's
/// asymmetric notions (`V1`-chordality vs `V2`-chordality) depend on which
/// side is which.
#[derive(Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    graph: Graph,
    side: Vec<Side>,
}

impl BipartiteGraph {
    /// Wraps a graph with an explicit side assignment, verifying that no
    /// edge joins two same-side nodes.
    pub fn new(graph: Graph, side: Vec<Side>) -> Result<Self, GraphError> {
        if side.len() != graph.node_count() {
            return Err(GraphError::PartitionSizeMismatch {
                provided: side.len(),
                expected: graph.node_count(),
            });
        }
        for (a, b) in graph.edges() {
            if side[a.index()] == side[b.index()] {
                return Err(GraphError::SameSideEdge(a, b));
            }
        }
        Ok(BipartiteGraph { graph, side })
    }

    /// Computes a bipartition by 2-coloring each connected component
    /// (isolated nodes land in `V1`). Fails with the odd-cycle witness if
    /// the graph is not bipartite.
    pub fn from_graph(graph: Graph) -> Result<Self, GraphError> {
        let n = graph.node_count();
        let mut side: Vec<Option<Side>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        for start in graph.nodes() {
            if side[start.index()].is_some() {
                continue;
            }
            side[start.index()] = Some(Side::V1);
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                #[expect(
                    clippy::expect_used,
                    reason = "every dequeued node was colored when it was enqueued"
                )]
                let sv = side[v.index()].expect("visited nodes are colored");
                for &u in graph.neighbors(v) {
                    match side[u.index()] {
                        None => {
                            side[u.index()] = Some(sv.opposite());
                            queue.push_back(u);
                        }
                        Some(su) if su == sv => {
                            return Err(GraphError::NotBipartite { witness: u });
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the sweep above started a BFS from every uncolored node"
        )]
        let side = side
            .into_iter()
            .map(|s| s.expect("all nodes colored"))
            .collect();
        Ok(BipartiteGraph { graph, side })
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The side of node `v`.
    #[inline]
    pub fn side(&self, v: NodeId) -> Side {
        self.side[v.index()]
    }

    /// Iterates the nodes of a given side, in increasing order.
    pub fn side_nodes(&self, s: Side) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes().filter(move |&v| self.side(v) == s)
    }

    /// The nodes of `V1` as a [`NodeSet`].
    pub fn v1_set(&self) -> NodeSet {
        NodeSet::from_nodes(self.graph.node_count(), self.side_nodes(Side::V1))
    }

    /// The nodes of `V2` as a [`NodeSet`].
    pub fn v2_set(&self) -> NodeSet {
        NodeSet::from_nodes(self.graph.node_count(), self.side_nodes(Side::V2))
    }

    /// Number of nodes on side `s`.
    pub fn side_count(&self, s: Side) -> usize {
        self.side.iter().filter(|&&x| x == s).count()
    }

    /// Returns the same graph with the two sides exchanged.
    ///
    /// This is the workhorse behind the paper's "the result also holds if we
    /// replace `V1` with `V2`" remarks (e.g. Corollary 4 reduces
    /// pseudo-Steiner w.r.t. `V1` to pseudo-Steiner w.r.t. `V2` on the
    /// swapped graph).
    pub fn swap_sides(&self) -> BipartiteGraph {
        BipartiteGraph {
            graph: self.graph.clone(),
            side: self.side.iter().map(|s| s.opposite()).collect(),
        }
    }
}

impl std::fmt::Debug for BipartiteGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "BipartiteGraph(|V1|={}, |V2|={}, m={})",
            self.side_count(Side::V1),
            self.side_count(Side::V2),
            self.graph.edge_count()
        )?;
        for v in self.graph.nodes() {
            writeln!(
                f,
                "  {:?} [{}] ({:?}) -> {:?}",
                v,
                self.graph.label(v),
                self.side(v),
                self.graph.neighbors(v)
            )?;
        }
        Ok(())
    }
}

/// Builds a bipartite graph from explicit side-`V1` and side-`V2` label
/// lists plus edges given as `(v1_index, v2_index)` pairs into those lists.
///
/// `V1` nodes receive identifiers `0..n1`, `V2` nodes `n1..n1+n2`, so the
/// caller can predict the dense ids. This is the constructor used for all
/// paper figures.
///
/// # Panics
/// Panics on out-of-range indices (programmer error in fixed data).
#[expect(
    clippy::expect_used,
    reason = "static fixture constructor: malformed compile-time edge lists must fail loudly, and sides follow list membership"
)]
pub fn bipartite_from_lists(
    v1_labels: &[&str],
    v2_labels: &[&str],
    edges: &[(usize, usize)],
) -> BipartiteGraph {
    let mut b = Graph::builder();
    let v1: Vec<NodeId> = v1_labels.iter().map(|l| b.add_node(*l)).collect();
    let v2: Vec<NodeId> = v2_labels.iter().map(|l| b.add_node(*l)).collect();
    for &(i, j) in edges {
        b.add_edge(v1[i], v2[j])
            .expect("invalid edge in bipartite list");
    }
    let graph = b.build();
    let mut side = vec![Side::V1; v1_labels.len()];
    side.extend(std::iter::repeat(Side::V2).take(v2_labels.len()));
    BipartiteGraph::new(graph, side).expect("lists construction is bipartite by shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn from_graph_two_colors_a_path() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let bg = BipartiteGraph::from_graph(g).unwrap();
        assert_eq!(bg.side(NodeId(0)), Side::V1);
        assert_eq!(bg.side(NodeId(1)), Side::V2);
        assert_eq!(bg.side(NodeId(2)), Side::V1);
    }

    #[test]
    fn odd_cycle_rejected() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(matches!(
            BipartiteGraph::from_graph(g),
            Err(GraphError::NotBipartite { .. })
        ));
    }

    #[test]
    fn explicit_partition_validated() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let err = BipartiteGraph::new(g.clone(), vec![Side::V1, Side::V1]).unwrap_err();
        assert_eq!(err, GraphError::SameSideEdge(NodeId(0), NodeId(1)));
        assert!(BipartiteGraph::new(g, vec![Side::V1, Side::V2]).is_ok());
    }

    #[test]
    fn partition_size_checked() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let err = BipartiteGraph::new(g, vec![Side::V1]).unwrap_err();
        assert_eq!(
            err,
            GraphError::PartitionSizeMismatch {
                provided: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn isolated_nodes_allowed_on_any_side() {
        let g = graph_from_edges(2, &[]);
        let bg = BipartiteGraph::new(g, vec![Side::V2, Side::V2]).unwrap();
        assert_eq!(bg.side_count(Side::V2), 2);
    }

    #[test]
    fn swap_sides_is_involutive() {
        let bg = bipartite_from_lists(&["a"], &["x", "y"], &[(0, 0), (0, 1)]);
        let sw = bg.swap_sides();
        assert_eq!(sw.side(NodeId(0)), Side::V2);
        assert_eq!(sw.side(NodeId(1)), Side::V1);
        assert_eq!(sw.swap_sides(), bg);
    }

    #[test]
    fn side_sets_partition_nodes() {
        let bg = bipartite_from_lists(&["a", "b"], &["x"], &[(0, 0), (1, 0)]);
        let v1 = bg.v1_set();
        let v2 = bg.v2_set();
        assert_eq!(v1.len() + v2.len(), 3);
        assert!(v1.is_disjoint_from(&v2));
        assert_eq!(bg.side_nodes(Side::V2).count(), 1);
    }

    #[test]
    fn from_lists_assigns_dense_ids() {
        let bg = bipartite_from_lists(&["A", "B"], &["1"], &[(0, 0)]);
        assert_eq!(bg.graph().label(NodeId(0)), "A");
        assert_eq!(bg.graph().label(NodeId(2)), "1");
        assert!(bg.graph().has_edge(NodeId(0), NodeId(2)));
    }
}
