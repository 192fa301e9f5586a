//! The core hypergraph type.

use crate::HypergraphBuilder;
use mcc_graph::{NodeId, NodeSet};
use std::fmt;

/// Identifier of a hyperedge inside a fixed [`Hypergraph`].
///
/// Dense index, analogous to [`NodeId`]. Distinct identifiers may denote
/// edges with identical node sets — the paper's Definition 1 explicitly
/// allows duplicate edges, and the bipartite-graph correspondence
/// (Definition 2) depends on it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Dense index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a dense index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "the `# Panics` contract is the documented API; hypergraphs beyond u32 edges are unsupported"
    )]
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32::MAX"))
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A finite hypergraph `H = (N, E)` (Definition 1): a node universe plus a
/// *family* of nonempty node subsets. Duplicate edges are allowed and kept
/// distinct; isolated nodes (in no edge) are allowed.
///
/// Edge contents are stored both as bitsets (for subset/intersection tests)
/// and implicitly via per-node incidence lists (for traversals).
#[derive(Clone, PartialEq, Eq)]
pub struct Hypergraph {
    node_labels: Vec<String>,
    edge_labels: Vec<String>,
    /// Edge contents as bitsets over the node universe.
    edges: Vec<NodeSet>,
    /// For each node, the (sorted) list of edges containing it.
    incidence: Vec<Vec<EdgeId>>,
}

impl Hypergraph {
    pub(crate) fn from_parts(
        node_labels: Vec<String>,
        edge_labels: Vec<String>,
        edges: Vec<NodeSet>,
    ) -> Self {
        let mut incidence = vec![Vec::new(); node_labels.len()];
        for (ei, e) in edges.iter().enumerate() {
            for v in e.iter() {
                incidence[v.index()].push(EdgeId::from_index(ei));
            }
        }
        Hypergraph {
            node_labels,
            edge_labels,
            edges,
            incidence,
        }
    }

    /// Starts building a hypergraph.
    pub fn builder() -> HypergraphBuilder {
        HypergraphBuilder::new()
    }

    /// Number of nodes in the universe.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of hyperedges (duplicates counted).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total size `Σ|e|` of the edge family — the `m` in the
    /// Tarjan–Yannakakis complexity bounds.
    pub fn total_size(&self) -> usize {
        self.edges.iter().map(|e| e.len()).sum()
    }

    /// Iterates node identifiers.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_labels.len()).map(NodeId::from_index)
    }

    /// Iterates edge identifiers.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// The node set of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &NodeSet {
        &self.edges[e.index()]
    }

    /// The label of node `v`.
    #[inline]
    pub fn node_label(&self, v: NodeId) -> &str {
        &self.node_labels[v.index()]
    }

    /// The label of edge `e`.
    #[inline]
    pub fn edge_label(&self, e: EdgeId) -> &str {
        &self.edge_labels[e.index()]
    }

    /// Looks up a node by label (first match).
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.node_labels
            .iter()
            .position(|l| l == label)
            .map(NodeId::from_index)
    }

    /// Looks up an edge by label (first match).
    pub fn edge_by_label(&self, label: &str) -> Option<EdgeId> {
        self.edge_labels
            .iter()
            .position(|l| l == label)
            .map(EdgeId::from_index)
    }

    /// The edges containing node `v`, in increasing id order.
    #[inline]
    pub fn edges_containing(&self, v: NodeId) -> &[EdgeId] {
        &self.incidence[v.index()]
    }

    /// Membership test.
    #[inline]
    pub fn edge_contains(&self, e: EdgeId, v: NodeId) -> bool {
        self.edges[e.index()].contains(v)
    }

    /// `true` iff node `v` lies in no edge.
    pub fn is_isolated(&self, v: NodeId) -> bool {
        self.incidence[v.index()].is_empty()
    }

    /// The sub-hypergraph induced by a subset of the **edge family**
    /// (a *partial hypergraph*). The node universe is preserved; this is
    /// the notion under which β-acyclicity is hereditary ("every partial
    /// hypergraph is α-acyclic").
    pub fn partial(&self, keep: &[EdgeId]) -> Hypergraph {
        let edges: Vec<NodeSet> = keep
            .iter()
            .map(|&e| self.edges[e.index()].clone())
            .collect();
        let edge_labels = keep
            .iter()
            .map(|&e| self.edge_labels[e.index()].clone())
            .collect();
        Hypergraph::from_parts(self.node_labels.clone(), edge_labels, edges)
    }

    /// Removes node `v` from every edge, dropping edges that become empty.
    /// The node stays in the universe (isolated). Used by the nest-point
    /// elimination recognizer for β-acyclicity.
    pub fn remove_node(&self, v: NodeId) -> Hypergraph {
        let mut edges = Vec::new();
        let mut edge_labels = Vec::new();
        for (i, e) in self.edges.iter().enumerate() {
            let mut e2 = e.clone();
            e2.remove(v);
            if !e2.is_empty() {
                edges.push(e2);
                edge_labels.push(self.edge_labels[i].clone());
            }
        }
        Hypergraph::from_parts(self.node_labels.clone(), edge_labels, edges)
    }

    /// The set of non-isolated nodes.
    pub fn covered_nodes(&self) -> NodeSet {
        let mut s = NodeSet::new(self.node_count());
        for e in &self.edges {
            s.union_with(e);
        }
        s
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Hypergraph(|N|={}, |E|={})",
            self.node_count(),
            self.edge_count()
        )?;
        for e in self.edge_ids() {
            let members: Vec<&str> = self.edge(e).iter().map(|v| self.node_label(v)).collect();
            writeln!(
                f,
                "  {:?} [{}] = {{{}}}",
                e,
                self.edge_label(e),
                members.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;

    #[test]
    fn edge_id_roundtrip() {
        assert_eq!(EdgeId::from_index(3).index(), 3);
        assert_eq!(format!("{:?}", EdgeId(1)), "e1");
        assert_eq!(format!("{}", EdgeId(1)), "1");
    }

    #[test]
    fn basic_accessors() {
        let h = hypergraph_from_lists(&["a", "b", "c"], &[("e1", &[0, 1]), ("e2", &[1, 2])]);
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 2);
        assert_eq!(h.total_size(), 4);
        assert_eq!(h.node_label(NodeId(0)), "a");
        assert_eq!(h.edge_label(EdgeId(1)), "e2");
        assert_eq!(h.node_by_label("c"), Some(NodeId(2)));
        assert_eq!(h.edge_by_label("e1"), Some(EdgeId(0)));
        assert!(h.edge_contains(EdgeId(0), NodeId(1)));
        assert!(!h.edge_contains(EdgeId(0), NodeId(2)));
        assert_eq!(h.edges_containing(NodeId(1)), &[EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn duplicate_edges_kept_distinct() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0, 1]), ("y", &[0, 1])]);
        assert_eq!(h.edge_count(), 2);
        assert_eq!(h.edge(EdgeId(0)), h.edge(EdgeId(1)));
    }

    #[test]
    fn isolated_nodes_allowed() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0])]);
        assert!(!h.is_isolated(NodeId(0)));
        assert!(h.is_isolated(NodeId(1)));
        assert_eq!(h.covered_nodes().to_vec(), vec![NodeId(0)]);
    }

    #[test]
    fn partial_hypergraph_selects_edges() {
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
        );
        let p = h.partial(&[EdgeId(0), EdgeId(2)]);
        assert_eq!(p.edge_count(), 2);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_label(EdgeId(1)), "z");
    }

    #[test]
    fn remove_node_drops_empty_edges() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0]), ("y", &[0, 1])]);
        let r = h.remove_node(NodeId(0));
        assert_eq!(r.edge_count(), 1);
        assert_eq!(r.edge_label(EdgeId(0)), "y");
        assert_eq!(r.edge(EdgeId(0)).to_vec(), vec![NodeId(1)]);
        // Universe unchanged.
        assert_eq!(r.node_count(), 2);
    }

    #[test]
    fn debug_render() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0, 1])]);
        let s = format!("{h:?}");
        assert!(s.contains("|N|=2"));
        assert!(s.contains("{a, b}"));
    }
}
