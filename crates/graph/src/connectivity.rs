//! Connectivity tests and connected components, restricted to alive masks.
//!
//! The inner loop of the paper's Algorithms 1 and 2 is "is
//! `G − (deleted nodes)` still a *cover* of `P̄`?" — i.e. is the induced
//! alive subgraph connected and does it still contain all terminals
//! (Definition 10). These helpers implement exactly that predicate.

use crate::{bfs_order_in, Graph, NodeId, NodeSet, Workspace};

/// `true` iff the subgraph induced by `alive` is connected.
///
/// Edge cases follow the paper's usage: the empty set is considered
/// connected (an empty cover can only cover an empty `P`), as is any
/// singleton.
pub fn is_connected_within(g: &Graph, alive: &NodeSet) -> bool {
    let mut ws = Workspace::with_capacity(g.node_count());
    match alive.first() {
        None => true,
        Some(start) => bfs_order_in(&mut ws, g, alive, start).len() == alive.len(),
    }
}

/// `true` iff the whole graph is connected (Definition 4).
pub fn is_connected(g: &Graph) -> bool {
    is_connected_within(g, &NodeSet::full(g.node_count()))
}

/// `true` iff the subgraph induced by `alive` is a **cover** of `terminals`
/// (Definition 10): it contains every terminal and is connected.
pub fn is_cover(g: &Graph, alive: &NodeSet, terminals: &NodeSet) -> bool {
    terminals.is_subset_of(alive) && is_connected_within(g, alive)
}

/// `true` iff every terminal is alive and all terminals lie in **one**
/// connected component of the subgraph induced by `alive`.
///
/// This is the *elimination test* of the paper's Algorithms 1 and 2: a
/// node is redundant "with respect to the connection of `P̄`" when its
/// removal keeps the terminals mutually connected — the remaining alive
/// set as a whole may temporarily contain stranded non-terminal pieces,
/// which later elimination steps clean up. (Testing full connectivity of
/// the alive set instead would let a one-pass sweep keep redundant
/// nodes; see `mcc-steiner`'s module docs.) The sweeps themselves answer
/// it from one block pass and block-local searches
/// ([`crate::remove_if_redundant_in`]); this whole-graph form is their
/// test oracle.
///
/// An empty terminal set is vacuously connected.
pub fn terminals_connected(g: &Graph, alive: &NodeSet, terminals: &NodeSet) -> bool {
    let mut ws = Workspace::with_capacity(g.node_count());
    terminals_connected_in(&mut ws, g, alive, terminals)
}

/// Allocation-free [`terminals_connected`]: one BFS from the first
/// terminal, counting terminals as they are reached and stopping early
/// once all of them have been seen. No component set is materialized.
pub fn terminals_connected_in(
    ws: &mut Workspace,
    g: &Graph,
    alive: &NodeSet,
    terminals: &NodeSet,
) -> bool {
    if !terminals.is_subset_of(alive) {
        return false;
    }
    let Some(t0) = terminals.first() else {
        return true;
    };
    let want = terminals.len();
    ws.stats.bfs_runs += 1;
    ws.begin_visit(g.node_count());
    ws.queue.clear();
    ws.mark(t0);
    ws.queue.push(t0);
    let mut found = 1;
    let mut head = 0;
    while head < ws.queue.len() {
        if found == want {
            return true;
        }
        let v = ws.queue[head];
        head += 1;
        for u in g.alive_neighbors(v, alive) {
            if ws.mark(u) {
                if terminals.contains(u) {
                    found += 1;
                }
                ws.queue.push(u);
            }
        }
    }
    found == want
}

/// The connected components of the subgraph induced by `alive`, each as a
/// [`NodeSet`], ordered by smallest member: a single BFS sweep under one
/// visited epoch, instead of cloning the alive mask and subtracting each
/// component from it.
pub fn connected_components(g: &Graph, alive: &NodeSet) -> Vec<NodeSet> {
    let mut ws = Workspace::with_capacity(g.node_count());
    let mut comps = Vec::new();
    ws.begin_visit(g.node_count());
    for start in alive.iter() {
        if ws.is_marked(start) {
            continue;
        }
        ws.queue.clear();
        ws.bfs_into_queue(g, alive, start);
        comps.push(NodeSet::from_nodes(
            g.node_count(),
            ws.queue.iter().copied(),
        ));
    }
    comps
}

/// The component of `v` in the subgraph induced by `alive`. `v` must be
/// alive.
pub fn component_of(g: &Graph, alive: &NodeSet, v: NodeId) -> NodeSet {
    let mut out = NodeSet::new(g.node_count());
    let mut ws = Workspace::with_capacity(g.node_count());
    component_of_in(&mut ws, g, alive, v, &mut out);
    out
}

/// Allocation-free [`component_of`]: clears `out` (which must have
/// capacity ≥ `g.node_count()`) and fills it with `v`'s component.
pub fn component_of_in(
    ws: &mut Workspace,
    g: &Graph,
    alive: &NodeSet,
    v: NodeId,
    out: &mut NodeSet,
) {
    out.clear();
    for &u in bfs_order_in(ws, g, alive, v) {
        out.insert(u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn empty_and_singleton_are_connected() {
        let g = graph_from_edges(3, &[]);
        assert!(is_connected_within(&g, &NodeSet::new(3)));
        assert!(is_connected_within(
            &g,
            &NodeSet::from_nodes(3, [NodeId(1)])
        ));
        assert!(!is_connected(&g)); // three isolated nodes
    }

    #[test]
    fn path_is_connected_until_cut() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_connected(&g));
        let mut alive = NodeSet::full(4);
        alive.remove(NodeId(1));
        assert!(!is_connected_within(&g, &alive));
    }

    #[test]
    fn cover_requires_terminals_and_connectivity() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = NodeSet::from_nodes(4, [NodeId(0), NodeId(3)]);
        assert!(is_cover(&g, &NodeSet::full(4), &p));
        // Dropping interior node 2 disconnects 0 from 3.
        let mut alive = NodeSet::full(4);
        alive.remove(NodeId(2));
        assert!(!is_cover(&g, &alive, &p));
        // Dropping a terminal also fails, even though the rest is connected.
        let mut alive = NodeSet::full(4);
        alive.remove(NodeId(3));
        assert!(!is_cover(&g, &alive, &p));
    }

    #[test]
    fn components_partition_alive() {
        let g = graph_from_edges(5, &[(0, 1), (2, 3)]);
        let comps = connected_components(&g, &NodeSet::full(5));
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].to_vec(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1].to_vec(), vec![NodeId(2), NodeId(3)]);
        assert_eq!(comps[2].to_vec(), vec![NodeId(4)]);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn terminals_connected_relaxed_test() {
        // Path 0-1-2 plus isolated 3.
        let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
        let p = NodeSet::from_nodes(4, [NodeId(0), NodeId(2)]);
        let mut alive = NodeSet::full(4);
        // Whole alive set is disconnected (node 3), yet terminals connect.
        assert!(!is_cover(&g, &alive, &p));
        assert!(terminals_connected(&g, &alive, &p));
        // Dropping the middle breaks it.
        alive.remove(NodeId(1));
        assert!(!terminals_connected(&g, &alive, &p));
        // Dead terminal fails.
        let mut alive = NodeSet::full(4);
        alive.remove(NodeId(0));
        assert!(!terminals_connected(&g, &alive, &p));
        // Empty terminal set is vacuous.
        assert!(terminals_connected(&g, &NodeSet::new(4), &NodeSet::new(4)));
    }

    #[test]
    fn component_of_node() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let c = component_of(&g, &NodeSet::full(4), NodeId(3));
        assert_eq!(c.to_vec(), vec![NodeId(2), NodeId(3)]);
    }
}
