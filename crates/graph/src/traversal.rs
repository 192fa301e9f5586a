//! Breadth-first and depth-first traversals, optionally restricted to an
//! alive mask.

use crate::{Graph, NodeId, NodeSet, Workspace};

/// Nodes reachable from `start` inside the subgraph induced by `alive`, in
/// BFS order. `start` must be alive.
///
/// Thin wrapper over [`bfs_order_in`] with a transient workspace; hot
/// paths should hold a [`Workspace`] and call the `_in` variant instead.
pub fn bfs_order(g: &Graph, alive: &NodeSet, start: NodeId) -> Vec<NodeId> {
    let mut ws = Workspace::with_capacity(g.node_count());
    bfs_order_in(&mut ws, g, alive, start).to_vec()
}

/// Allocation-free [`bfs_order`]: the returned slice borrows the
/// workspace's queue and stays valid until the workspace's next traversal.
pub fn bfs_order_in<'ws>(
    ws: &'ws mut Workspace,
    g: &Graph,
    alive: &NodeSet,
    start: NodeId,
) -> &'ws [NodeId] {
    ws.begin_visit(g.node_count());
    ws.queue.clear();
    ws.bfs_into_queue(g, alive, start);
    &ws.queue
}

/// Nodes reachable from `start` inside the subgraph induced by `alive`, in
/// (iterative, preorder) DFS order. `start` must be alive.
pub fn dfs_order(g: &Graph, alive: &NodeSet, start: NodeId) -> Vec<NodeId> {
    debug_assert!(alive.contains(start), "DFS start node must be alive");
    let mut seen = NodeSet::new(g.node_count());
    let mut order = Vec::new();
    let mut stack = vec![start];
    seen.insert(start);
    while let Some(v) = stack.pop() {
        order.push(v);
        // Push in reverse so that the smallest neighbor is visited first.
        for &u in g.neighbors(v).iter().rev() {
            if alive.contains(u) && seen.insert(u) {
                stack.push(u);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn bfs_visits_by_layers() {
        // 0-1, 0-2, 1-3, 2-3
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = bfs_order(&g, &NodeSet::full(4), NodeId(0));
        assert_eq!(order, ids(&[0, 1, 2, 3]));
    }

    #[test]
    fn dfs_goes_deep_first() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3)]);
        let order = dfs_order(&g, &NodeSet::full(4), NodeId(0));
        assert_eq!(order, ids(&[0, 1, 3, 2]));
    }

    #[test]
    fn traversal_respects_alive_mask() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut alive = NodeSet::full(4);
        alive.remove(NodeId(1)); // cut the path
        let order = bfs_order(&g, &alive, NodeId(0));
        assert_eq!(order, ids(&[0]));
        let order = dfs_order(&g, &alive, NodeId(2));
        assert_eq!(order, ids(&[2, 3]));
    }

    #[test]
    fn singleton_graph() {
        let g = graph_from_edges(1, &[]);
        assert_eq!(bfs_order(&g, &NodeSet::full(1), NodeId(0)), ids(&[0]));
        assert_eq!(dfs_order(&g, &NodeSet::full(1), NodeId(0)), ids(&[0]));
    }
}
