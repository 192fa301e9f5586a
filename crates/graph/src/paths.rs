//! Unweighted shortest paths (BFS distances and path extraction).

use crate::{Graph, NodeId, NodeSet};
use std::collections::VecDeque;

/// Sentinel distance for unreachable nodes.
pub const INFINITE_DISTANCE: u32 = u32::MAX;

/// BFS distances from `start` within the subgraph induced by `alive`.
/// Unreachable (or dead) nodes get [`INFINITE_DISTANCE`].
pub fn bfs_distances(g: &Graph, alive: &NodeSet, start: NodeId) -> Vec<u32> {
    let mut dist = vec![INFINITE_DISTANCE; g.node_count()];
    if !alive.contains(start) {
        return dist;
    }
    dist[start.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for u in g.alive_neighbors(v, alive) {
            if dist[u.index()] == INFINITE_DISTANCE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// A shortest path from `from` to `to` inside the subgraph induced by
/// `alive`, as the full node sequence `from, …, to`; `None` when
/// unreachable.
pub fn shortest_path(g: &Graph, alive: &NodeSet, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if !alive.contains(from) || !alive.contains(to) {
        return None;
    }
    if from == to {
        return Some(vec![from]);
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; g.node_count()];
    let mut seen = NodeSet::new(g.node_count());
    seen.insert(from);
    let mut queue = VecDeque::new();
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for u in g.alive_neighbors(v, alive) {
            if seen.insert(u) {
                parent[u.index()] = Some(v);
                if u == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = parent[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(u);
            }
        }
    }
    None
}

/// All-pairs BFS distances (a `n × n` matrix). `O(n · (n + m))`; intended
/// for the exact Steiner solver and small-instance analyses.
pub fn all_pairs_distances(g: &Graph, alive: &NodeSet) -> Vec<Vec<u32>> {
    g.nodes().map(|v| bfs_distances(g, alive, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn distances_on_a_path() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = bfs_distances(&g, &NodeSet::full(4), NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, &NodeSet::full(3), NodeId(0));
        assert_eq!(d[2], INFINITE_DISTANCE);
    }

    #[test]
    fn dead_start_gives_all_infinite() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let mut alive = NodeSet::full(2);
        alive.remove(NodeId(0));
        let d = bfs_distances(&g, &alive, NodeId(0));
        assert!(d.iter().all(|&x| x == INFINITE_DISTANCE));
    }

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        // 0-1-2-4 and 0-3-4: the latter is shorter.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]);
        let p = shortest_path(&g, &NodeSet::full(5), NodeId(0), NodeId(4)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn shortest_path_trivial_and_missing() {
        let g = graph_from_edges(3, &[(0, 1)]);
        assert_eq!(
            shortest_path(&g, &NodeSet::full(3), NodeId(1), NodeId(1)),
            Some(vec![NodeId(1)])
        );
        assert_eq!(
            shortest_path(&g, &NodeSet::full(3), NodeId(0), NodeId(2)),
            None
        );
    }

    #[test]
    fn shortest_path_respects_mask() {
        let g = graph_from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let mut alive = NodeSet::full(4);
        alive.remove(NodeId(1));
        let p = shortest_path(&g, &alive, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    #[allow(
        clippy::needless_range_loop,
        reason = "symmetry is m[i][j] == m[j][i]: both indices are needed"
    )]
    fn all_pairs_matrix_is_symmetric() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = all_pairs_distances(&g, &NodeSet::full(4));
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[i][j], m[j][i]);
            }
        }
        assert_eq!(m[0][3], 3);
    }
}
