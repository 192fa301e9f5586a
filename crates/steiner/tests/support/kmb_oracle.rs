//! The textbook KMB heuristic, kept as a test oracle for the production
//! `steiner_kmb`: a full BFS row per terminal, Prim over the
//! metric closure, a second BFS per closure edge for its path, and
//! Algorithm 2 on a copy of the subgraph the path union induces, lifted
//! back to the parent graph. The production form must return the same
//! trees and the same disconnection verdicts.
//!
//! Shared by `tests/kmb_differential.rs` and the solver's unit tests,
//! which both import `algorithm2`, `SolveError` and
//! `SteinerTree` at their crate root.

use crate::{algorithm2, SolveError, SteinerTree};
use mcc_graph::{
    bfs_distances, induced_subgraph, shortest_path, CancelToken, Graph, NodeId, NodeSet, Workspace,
    INFINITE_DISTANCE,
};

/// KMB as a subgraph copy; [`SolveError::Disconnected`] when the
/// terminals are not connected.
pub fn steiner_kmb(g: &Graph, terminals: &NodeSet) -> Result<SteinerTree, SolveError> {
    let n = g.node_count();
    let ts = terminals.to_vec();
    let k = ts.len();
    if k == 0 {
        return Ok(SteinerTree {
            nodes: NodeSet::new(n),
            edges: vec![],
        });
    }
    let full = NodeSet::full(n);
    let dist: Vec<Vec<u32>> = ts.iter().map(|&t| bfs_distances(g, &full, t)).collect();
    let mut in_tree = vec![false; k];
    let mut best: Vec<u32> = ts.iter().map(|t| dist[0][t.index()]).collect();
    let mut best_from = vec![0usize; k];
    in_tree[0] = true;
    let mut union = NodeSet::from_nodes(n, [ts[0]]);
    for _ in 1..k {
        let (i, _) = best
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_tree[*i])
            .min_by_key(|(_, &d)| d)
            .ok_or(SolveError::Disconnected)?;
        if best[i] == INFINITE_DISTANCE {
            return Err(SolveError::Disconnected);
        }
        in_tree[i] = true;
        let path = shortest_path(g, &full, ts[best_from[i]], ts[i]).expect("finite distance");
        for v in path {
            union.insert(v);
        }
        for j in 0..k {
            if !in_tree[j] && dist[i][ts[j].index()] < best[j] {
                best[j] = dist[i][ts[j].index()];
                best_from[j] = i;
            }
        }
    }
    let sub = induced_subgraph(g, &union);
    let local_terminals = NodeSet::from_nodes(
        sub.graph.node_count(),
        ts.iter()
            .map(|&t| sub.child_of(t).expect("terminal in union")),
    );
    let local_order: Vec<NodeId> = sub.graph.nodes().collect();
    let local = algorithm2(
        &mut Workspace::new(),
        &sub.graph,
        &local_terminals,
        &local_order,
        &CancelToken::unbounded(),
    )?;
    let nodes = NodeSet::from_nodes(n, local.nodes.iter().map(|v| sub.parent_of(v)));
    Ok(SteinerTree::from_cover(g, &nodes).expect("the pruned union spans the terminals"))
}
