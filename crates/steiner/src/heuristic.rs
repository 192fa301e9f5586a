//! A Kou–Markowsky–Berman-style Steiner heuristic (2-approximation on
//! edge counts), used as the off-class baseline in the experiments and as
//! the last rung of the solver's degradation ladder (cheap enough to run
//! inside whatever deadline remains after an exact attempt trips).
//!
//! 1. build the metric closure of the terminals (BFS distances);
//! 2. take a minimum spanning tree of the closure (Prim);
//! 3. expand closure edges into shortest paths and union their nodes;
//! 4. prune: eliminate redundant nodes (an Algorithm-2-style sweep),
//!    yielding a nonredundant cover;
//! 5. return a spanning tree.

use crate::{algorithm2_budgeted_in, SolveError, SolveOutcome, SteinerTree};
use mcc_graph::{
    bfs_distances, shortest_path, CancelToken, Graph, NodeId, NodeSet, Stage, Workspace,
    INFINITE_DISTANCE,
};

/// Runs the KMB-style heuristic. Returns `None` when the terminals are
/// not connected.
pub fn steiner_kmb(g: &Graph, terminals: &NodeSet) -> Option<SteinerTree> {
    match steiner_kmb_budgeted(g, terminals, &CancelToken::unbounded()) {
        Ok(tree) => Some(tree),
        Err(SolveError::Disconnected) => None,
        #[expect(
            clippy::panic,
            reason = "unbudgeted wrapper: residual errors are internal bugs; the budgeted twin is the production path"
        )]
        Err(e) => panic!("unbudgeted KMB heuristic failed: {e}"),
    }
}

/// [`steiner_kmb`] under a [`CancelToken`]: a tick per BFS row / Prim
/// round / pruning candidate, and disconnection as
/// [`SolveError::Disconnected`]. This is the fallback rung of the
/// degradation ladder, so it shares the ladder's one token — a deadline
/// spans the exact attempt *and* this fallback.
pub fn steiner_kmb_budgeted(
    g: &Graph,
    terminals: &NodeSet,
    token: &CancelToken,
) -> SolveOutcome<SteinerTree> {
    let _span = mcc_obs::span!(Kmb);
    let n = g.node_count();
    assert_eq!(terminals.capacity(), n, "terminal universe mismatch");
    token.checkpoint(Stage::Heuristic)?;
    let ts: Vec<NodeId> = terminals.to_vec();
    if ts.is_empty() {
        return Ok(SteinerTree {
            nodes: NodeSet::new(n),
            edges: vec![],
        });
    }
    let full = NodeSet::full(n);
    // Metric closure rows for terminals only. One BFS visits every node
    // and edge once: charge |V| + 2|A| units per row.
    let row_cost = (n + 2 * g.edge_count()) as u64;
    let mut dist: Vec<Vec<u32>> = Vec::with_capacity(ts.len());
    for &t in &ts {
        token.tick(Stage::Heuristic, row_cost)?;
        dist.push(bfs_distances(g, &full, t));
    }
    // Prim over the closure.
    let k = ts.len();
    let mut in_tree = vec![false; k];
    let mut best = vec![u32::MAX; k];
    let mut best_from = vec![0usize; k];
    in_tree[0] = true;
    for (i, b) in best.iter_mut().enumerate() {
        *b = dist[0][ts[i].index()];
    }
    let mut union = NodeSet::new(n);
    union.insert(ts[0]);
    for _ in 1..k {
        token.tick(Stage::Heuristic, (k + n) as u64)?;
        let Some((i, _)) = best
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_tree[*i])
            .min_by_key(|(_, &d)| d)
        else {
            return Err(SolveError::Disconnected);
        };
        if best[i] == INFINITE_DISTANCE {
            return Err(SolveError::Disconnected);
        }
        in_tree[i] = true;
        // Expand the chosen closure edge into a concrete shortest path.
        let path = shortest_path(g, &full, ts[best_from[i]], ts[i]).ok_or_else(|| {
            SolveError::Internal {
                stage: Stage::Heuristic,
                detail: "finite closure distance but no realizing path".to_string(),
            }
        })?;
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
    // Prune to a nonredundant cover (restricting elimination to the
    // union keeps this cheap), then span.
    let order: Vec<NodeId> = union.to_vec();
    let sub = restrict_graph(g, &union);
    #[expect(
        clippy::expect_used,
        reason = "terminals seeded the union, so each has a mapping in the subgraph"
    )]
    let local_terminals = NodeSet::from_nodes(
        sub.graph.node_count(),
        ts.iter()
            .map(|&t| sub.from_parent[t.index()].expect("terminal in union")),
    );
    let local_order: Vec<NodeId> = (0..order.len()).map(NodeId::from_index).collect();
    let t_local = algorithm2_budgeted_in(
        &mut Workspace::new(),
        &sub.graph,
        &local_terminals,
        &local_order,
        token,
    )?;
    // Lift back to parent ids.
    let nodes = NodeSet::from_nodes(n, t_local.nodes.iter().map(|v| sub.to_parent[v.index()]));
    SteinerTree::from_cover(g, &nodes).ok_or_else(|| SolveError::Internal {
        stage: Stage::Heuristic,
        detail: "pruned union lost terminal connectivity".to_string(),
    })
}

fn restrict_graph(g: &Graph, keep: &NodeSet) -> mcc_graph::InducedSubgraph {
    mcc_graph::induced_subgraph(g, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::steiner_exact;
    use crate::SteinerInstance;
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::{BudgetKind, SolveBudget};
    use std::time::Duration;

    fn terminals(n: usize, ts: &[u32]) -> NodeSet {
        NodeSet::from_nodes(n, ts.iter().map(|&t| NodeId(t)))
    }

    #[test]
    fn two_terminals_gives_shortest_path() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let t = steiner_kmb(&g, &terminals(5, &[0, 2])).unwrap();
        assert_eq!(t.node_cost(), 3);
        assert!(t.is_valid_tree(&g));
    }

    #[test]
    fn star_three_leaves() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let t = steiner_kmb(&g, &terminals(5, &[1, 2, 3])).unwrap();
        assert_eq!(t.node_cost(), 4);
    }

    #[test]
    fn never_worse_than_double_optimal_on_small_cases() {
        let g = graph_from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (3, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (0, 3),
                (3, 6),
                (1, 4),
                (4, 7),
                (2, 5),
                (5, 8),
            ],
        );
        for ts in [vec![0, 8], vec![0, 2, 6], vec![0, 2, 6, 8]] {
            let p = terminals(9, &ts);
            let h = steiner_kmb(&g, &p).unwrap();
            let e = steiner_exact(&SteinerInstance::new(g.clone(), p.clone())).unwrap();
            assert!(h.node_cost() as u64 <= 2 * e.cost, "ts={ts:?}");
            assert!(h.node_cost() as u64 >= e.cost);
            assert!(p.is_subset_of(&h.nodes));
        }
    }

    #[test]
    fn disconnected_terminals_none() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(steiner_kmb(&g, &terminals(4, &[0, 3])).is_none());
    }

    #[test]
    fn budgeted_solves_within_a_generous_deadline() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let token = SolveBudget::with_deadline(Duration::from_secs(30)).start();
        let t = steiner_kmb_budgeted(&g, &terminals(5, &[0, 2]), &token).unwrap();
        assert_eq!(t.node_cost(), 3);
    }

    #[test]
    fn budgeted_trips_on_expired_deadline() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let token = SolveBudget::with_deadline(Duration::ZERO).start();
        std::thread::sleep(Duration::from_millis(2));
        let e = steiner_kmb_budgeted(&g, &terminals(5, &[0, 2]), &token).unwrap_err();
        assert_eq!(e.budget().unwrap().kind, BudgetKind::WallClockMs);
    }

    #[test]
    fn empty_terminals() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let t = steiner_kmb(&g, &terminals(2, &[])).unwrap();
        assert_eq!(t.node_cost(), 0);
    }
}
