//! Spanning trees of induced subgraphs.
//!
//! Step 3 of the paper's Algorithm 1 and Step 2 of Algorithm 2 both end by
//! "determine a spanning tree" of the surviving cover. Any spanning tree
//! does (every node of the cover is needed, by nonredundancy), so we take
//! the BFS tree.

use crate::{Graph, NodeId, NodeSet};
use std::collections::VecDeque;

/// A spanning tree of the subgraph induced by `alive`, as a list of edges.
///
/// Returns `None` if the induced subgraph is disconnected (no spanning tree
/// exists). An empty or singleton alive set yields `Some(vec![])`.
pub fn spanning_tree(g: &Graph, alive: &NodeSet) -> Option<Vec<(NodeId, NodeId)>> {
    let Some(start) = alive.first() else {
        return Some(Vec::new());
    };
    let mut seen = NodeSet::new(g.node_count());
    seen.insert(start);
    // Sized up front: the allocation count stays independent of the
    // tree's size.
    let mut queue = VecDeque::with_capacity(alive.len());
    queue.push_back(start);
    let mut edges = Vec::with_capacity(alive.len().saturating_sub(1));
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if alive.contains(u) && seen.insert(u) {
                edges.push((v, u));
                queue.push_back(u);
            }
        }
    }
    if seen.len() == alive.len() {
        Some(edges)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn tree_has_n_minus_one_edges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let t = spanning_tree(&g, &NodeSet::full(4)).unwrap();
        assert_eq!(t.len(), 3);
        // Every tree edge is a graph edge.
        for (a, b) in &t {
            assert!(g.has_edge(*a, *b));
        }
    }

    #[test]
    fn disconnected_has_no_spanning_tree() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(spanning_tree(&g, &NodeSet::full(4)).is_none());
    }

    #[test]
    fn empty_and_singleton() {
        let g = graph_from_edges(2, &[]);
        assert_eq!(spanning_tree(&g, &NodeSet::new(2)), Some(vec![]));
        assert_eq!(
            spanning_tree(&g, &NodeSet::from_nodes(2, [NodeId(1)])),
            Some(vec![])
        );
    }

    #[test]
    fn restricted_to_mask() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let alive = NodeSet::from_nodes(4, [NodeId(0), NodeId(1), NodeId(2)]);
        let t = spanning_tree(&g, &alive).unwrap();
        assert_eq!(t.len(), 2);
        for (a, b) in &t {
            assert!(alive.contains(*a) && alive.contains(*b));
        }
    }
}
