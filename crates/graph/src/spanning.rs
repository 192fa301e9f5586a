//! Spanning trees of induced subgraphs.
//!
//! Step 3 of the paper's Algorithm 1 and Step 2 of Algorithm 2 both end by
//! "determine a spanning tree" of the surviving cover. Any spanning tree
//! does (every node of the cover is needed, by nonredundancy), so we take
//! the BFS tree, and allocate nothing but the tree itself: two buffers,
//! its node set and its edge list.

use crate::{Graph, NodeId, NodeSet};

/// A spanning tree of the subgraph induced by `alive`: its node set (equal
/// to `alive`) and its edges, the BFS tree from the least node with
/// neighbours taken in increasing id.
///
/// Returns `None` if the induced subgraph is disconnected (no spanning tree
/// exists). An empty or singleton alive set yields no edges. Allocates
/// only the result: the node set doubles as the visited set, and the edge
/// list as the queue (the BFS's node `i + 1` is the far end of edge `i`).
pub fn spanning_tree(g: &Graph, alive: &NodeSet) -> Option<(NodeSet, Vec<(NodeId, NodeId)>)> {
    let mut nodes = NodeSet::new(g.node_count());
    let Some(start) = alive.first() else {
        return Some((nodes, Vec::new()));
    };
    nodes.insert(start);
    // Sized up front, so the allocation count does not grow with the tree.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(alive.len() - 1);
    let (mut v, mut head) = (start, 0);
    loop {
        for &u in g.neighbors(v) {
            if alive.contains(u) && nodes.insert(u) {
                edges.push((v, u));
            }
        }
        let Some(&(_, next)) = edges.get(head) else {
            break;
        };
        (v, head) = (next, head + 1);
    }
    (nodes.len() == alive.len()).then_some((nodes, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn tree_has_n_minus_one_edges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (nodes, t) = spanning_tree(&g, &NodeSet::full(4)).unwrap();
        assert_eq!(nodes, NodeSet::full(4));
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
        assert_eq!(
            spanning_tree(&g, &NodeSet::new(2)),
            Some((NodeSet::new(2), vec![]))
        );
        let one = NodeSet::from_nodes(2, [NodeId(1)]);
        assert_eq!(spanning_tree(&g, &one), Some((one, vec![])));
    }

    #[test]
    fn restricted_to_mask() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let alive = NodeSet::from_nodes(4, [NodeId(0), NodeId(1), NodeId(2)]);
        let (nodes, t) = spanning_tree(&g, &alive).unwrap();
        assert_eq!(nodes, alive);
        assert_eq!(t.len(), 2);
        for (a, b) in &t {
            assert!(alive.contains(*a) && alive.contains(*b));
        }
    }
}
