//! Mutable construction of [`Hypergraph`] values.

use crate::{EdgeId, Hypergraph, HypergraphError};
use mcc_graph::{NodeId, NodeSet};

/// Incremental builder for [`Hypergraph`].
///
/// All nodes must be added before any edge (edge bitsets are sized by the
/// final universe, so the builder records edges as index lists and resolves
/// them in [`HypergraphBuilder::build`]).
#[derive(Debug, Default, Clone)]
pub struct HypergraphBuilder {
    node_labels: Vec<String>,
    edge_labels: Vec<String>,
    edges: Vec<Vec<NodeId>>,
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node to the universe, returning its identifier.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId::from_index(self.node_labels.len());
        self.node_labels.push(label.into());
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Adds an edge with the given member nodes.
    ///
    /// Empty edges are rejected (Definition 1 requires nonempty subsets);
    /// duplicate members within the list are merged; duplicate *edges*
    /// across calls are allowed and kept distinct.
    pub fn add_edge(
        &mut self,
        label: impl Into<String>,
        members: impl IntoIterator<Item = NodeId>,
    ) -> Result<EdgeId, HypergraphError> {
        let mut list: Vec<NodeId> = members.into_iter().collect();
        list.sort_unstable();
        list.dedup();
        if list.is_empty() {
            return Err(HypergraphError::EmptyEdge);
        }
        for &v in &list {
            if v.index() >= self.node_labels.len() {
                return Err(HypergraphError::NodeOutOfRange {
                    node: v,
                    node_count: self.node_labels.len(),
                });
            }
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edge_labels.push(label.into());
        self.edges.push(list);
        Ok(id)
    }

    /// Finalizes the hypergraph.
    pub fn build(self) -> Hypergraph {
        let n = self.node_labels.len();
        let edges = self
            .edges
            .into_iter()
            .map(|list| NodeSet::from_nodes(n, list))
            .collect();
        Hypergraph::from_parts(self.node_labels, self.edge_labels, edges)
    }
}

/// Builds a hypergraph from label lists: nodes by label, edges as
/// `(label, member_indices)` pairs. The constructor used for all paper
/// figures.
///
/// # Panics
/// Panics on empty edges or out-of-range indices (programmer error in
/// fixed data).
#[expect(
    clippy::expect_used,
    reason = "static fixture constructor: malformed compile-time hypergraph data must fail loudly"
)]
pub fn hypergraph_from_lists(node_labels: &[&str], edges: &[(&str, &[usize])]) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for l in node_labels {
        b.add_node(*l);
    }
    for (label, members) in edges {
        b.add_edge(*label, members.iter().map(|&i| NodeId::from_index(i)))
            .expect("invalid edge in static hypergraph data");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_edge_rejected() {
        let mut b = HypergraphBuilder::new();
        b.add_node("a");
        assert_eq!(b.add_edge("e", []), Err(HypergraphError::EmptyEdge));
    }

    #[test]
    fn out_of_range_member_rejected() {
        let mut b = HypergraphBuilder::new();
        b.add_node("a");
        let err = b.add_edge("e", [NodeId(7)]).unwrap_err();
        assert_eq!(
            err,
            HypergraphError::NodeOutOfRange {
                node: NodeId(7),
                node_count: 1
            }
        );
    }

    #[test]
    fn duplicate_members_merged() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_node("a");
        let e = b.add_edge("e", [a, a, a]).unwrap();
        let h = b.build();
        assert_eq!(h.edge(e).len(), 1);
    }

    #[test]
    fn ids_are_dense() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        assert_eq!((a, c), (NodeId(0), NodeId(1)));
        let e0 = b.add_edge("x", [a]).unwrap();
        let e1 = b.add_edge("y", [c]).unwrap();
        assert_eq!((e0, e1), (EdgeId(0), EdgeId(1)));
    }

    #[test]
    fn from_lists_constructor() {
        let h = hypergraph_from_lists(&["a", "b", "c"], &[("x", &[0, 2]), ("y", &[1])]);
        assert_eq!(h.edge_count(), 2);
        assert_eq!(h.edge(EdgeId(0)).to_vec(), vec![NodeId(0), NodeId(2)]);
    }
}
