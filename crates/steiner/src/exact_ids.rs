//! A second, independent exact Steiner solver: iterative-deepening
//! enumeration of connected node sets.
//!
//! For each candidate cost `k` (starting at a BFS-eccentricity lower
//! bound), the search grows connected supersets of a root terminal, one
//! node at a time, with two prunes:
//!
//! * **don't-look**: when the search declines to add an extension node it
//!   stays forbidden in that whole subtree, so every connected set is
//!   visited at most once;
//! * **reachability**: a terminal farther (in remaining-graph BFS hops)
//!   from the current set than the remaining budget kills the branch.
//!
//! The solver exists as a deliberately different algorithm from the
//! Dreyfus–Wagner DP in [`crate::exact`]: the two are cross-checked in
//! property tests, and the NP-hardness experiment can report both
//! exponential baselines. Its sweet spot is few *extra* nodes (small
//! `k − |P̄|`) rather than few terminals. It is an oracle: no serving
//! path runs it, so it takes no budget.

use crate::{ExactSolution, SteinerTree};
use mcc_graph::{bfs_distances, Graph, NodeId, NodeSet, INFINITE_DISTANCE};

/// Exact minimum-node Steiner tree by iterative deepening. Returns
/// `None` when the terminals are disconnected. Equivalent to
/// [`crate::steiner_exact`] (unit weights), by a different algorithm.
///
/// # Panics
///
/// If the search finds no connected node set of any size up to `|V|`
/// for connected terminals, or grows a disconnected one — both would
/// mean the prunes are unsound.
pub fn steiner_exact_ids(g: &Graph, terminals: &NodeSet) -> Option<ExactSolution> {
    let n = g.node_count();
    assert_eq!(terminals.capacity(), n, "terminal universe mismatch");
    if terminals.is_empty() {
        return Some(ExactSolution {
            tree: SteinerTree {
                nodes: NodeSet::new(n),
                edges: vec![],
            },
            cost: 0,
        });
    }
    #[expect(clippy::expect_used, reason = "the empty-terminal case returned above")]
    let root = terminals.first().expect("nonempty");
    let full = NodeSet::full(n);
    // Feasibility + lower bound: every terminal must be reachable, and a
    // tree containing nodes at distance d from the root has ≥ d + 1
    // nodes.
    let dist_root = bfs_distances(g, &full, root);
    let mut lb = terminals.len();
    for t in terminals.iter() {
        let d = dist_root[t.index()];
        if d == INFINITE_DISTANCE {
            return None;
        }
        lb = lb.max(d as usize + 1);
    }
    // Per-node BFS distances to the nearest terminal, for the
    // reachability prune.
    let term_dist = multi_source_distances(g, terminals);

    for k in lb..=n {
        let mut state = SearchState {
            g,
            term_dist: &term_dist,
            budget: k,
            chosen: NodeSet::from_nodes(n, [root]),
            missing: {
                let mut m = terminals.clone();
                m.remove(root);
                m
            },
        };
        let mut forbidden = NodeSet::new(n);
        if let Some(nodes) = state.dfs(&mut forbidden) {
            #[expect(
                clippy::expect_used,
                reason = "the search only grows sets along edges from the root, so they stay connected"
            )]
            let tree = SteinerTree::from_cover(g, &nodes).expect("grown node set is connected");
            return Some(ExactSolution {
                cost: tree.node_cost() as u64,
                tree,
            });
        }
    }
    // The spanning set of the component succeeds by k = n.
    #[expect(
        clippy::panic,
        reason = "reaching here means the prunes are unsound; this oracle has no caller to degrade for"
    )]
    {
        panic!("iterative deepening exhausted k = {n} without a spanning witness")
    }
}

/// BFS distances to the nearest member of `sources`.
fn multi_source_distances(g: &Graph, sources: &NodeSet) -> Vec<u32> {
    let mut dist = vec![INFINITE_DISTANCE; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    for s in sources.iter() {
        dist[s.index()] = 0;
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if dist[u.index()] == INFINITE_DISTANCE {
                dist[u.index()] = dist[v.index()] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

struct SearchState<'a> {
    g: &'a Graph,
    term_dist: &'a [u32],
    budget: usize,
    chosen: NodeSet,
    missing: NodeSet,
}

impl SearchState<'_> {
    /// Depth-first growth. `forbidden` nodes were declined earlier on
    /// this branch. Returns a connected superset of the terminals with
    /// at most `budget` nodes, or `None`.
    fn dfs(&mut self, forbidden: &mut NodeSet) -> Option<NodeSet> {
        if self.missing.is_empty() {
            return Some(self.chosen.clone());
        }
        if self.chosen.len() >= self.budget {
            return None;
        }
        let slack = self.budget - self.chosen.len();
        // Reachability prune: every missing terminal must be within
        // `slack` hops of the chosen set in the unforbidden graph. The
        // cheap static version uses whole-graph distances to the *chosen
        // frontier*; recompute restricted distances only when the static
        // bound is inconclusive.
        let mut alive = NodeSet::full(self.g.node_count());
        alive.difference_with(forbidden);
        let dist = restricted_distances(self.g, &alive, &self.chosen);
        for t in self.missing.iter() {
            let d = dist[t.index()];
            if d == INFINITE_DISTANCE || d as usize > slack {
                return None;
            }
        }

        // Extension candidates: neighbors of the chosen set, unforbidden,
        // preferring ones closest to a missing terminal (cheap greedy
        // ordering; exactness is unaffected).
        let mut candidates: Vec<NodeId> = Vec::new();
        for v in self.chosen.to_vec() {
            for &u in self.g.neighbors(v) {
                if !self.chosen.contains(u) && !forbidden.contains(u) && !candidates.contains(&u) {
                    candidates.push(u);
                }
            }
        }
        candidates.sort_by_key(|&u| self.term_dist[u.index()]);

        let mut locally_forbidden: Vec<NodeId> = Vec::new();
        for u in candidates {
            if forbidden.contains(u) {
                continue; // forbidden by an earlier sibling
            }
            // Include u.
            self.chosen.insert(u);
            let was_missing = self.missing.remove(u);
            let hit = self.dfs(forbidden);
            self.chosen.remove(u);
            if was_missing {
                self.missing.insert(u);
            }
            if hit.is_some() {
                for &w in &locally_forbidden {
                    forbidden.remove(w);
                }
                return hit;
            }
            // Exclude u for the rest of this branch (don't-look).
            forbidden.insert(u);
            locally_forbidden.push(u);
        }
        for &w in &locally_forbidden {
            forbidden.remove(w);
        }
        None
    }
}

/// BFS distances from the set `sources` within `alive`.
fn restricted_distances(g: &Graph, alive: &NodeSet, sources: &NodeSet) -> Vec<u32> {
    let mut dist = vec![INFINITE_DISTANCE; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    for s in sources.iter() {
        dist[s.index()] = 0;
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if alive.contains(u) && dist[u.index()] == INFINITE_DISTANCE {
                dist[u.index()] = dist[v.index()] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{steiner_exact, SteinerInstance};
    use mcc_graph::builder::graph_from_edges;

    fn terminals(n: usize, ts: &[u32]) -> NodeSet {
        NodeSet::from_nodes(n, ts.iter().map(|&t| NodeId(t)))
    }

    #[test]
    fn matches_dreyfus_wagner_on_grids() {
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
        for ts in [
            vec![0u32, 8],
            vec![0, 2, 6],
            vec![0, 2, 6, 8],
            vec![1, 3, 5, 7],
        ] {
            let p = terminals(9, &ts);
            let ids = steiner_exact_ids(&g, &p).unwrap();
            let dw = steiner_exact(&SteinerInstance::new(g.clone(), p.clone())).unwrap();
            assert_eq!(ids.cost, dw.cost, "ts={ts:?}");
            assert!(ids.tree.is_valid_tree(&g));
            assert!(p.is_subset_of(&ids.tree.nodes));
        }
    }

    #[test]
    fn trivial_cases() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(steiner_exact_ids(&g, &terminals(3, &[])).unwrap().cost, 0);
        assert_eq!(steiner_exact_ids(&g, &terminals(3, &[2])).unwrap().cost, 1);
        assert_eq!(
            steiner_exact_ids(&g, &terminals(3, &[0, 2])).unwrap().cost,
            3
        );
    }

    #[test]
    fn disconnected_is_none() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(steiner_exact_ids(&g, &terminals(4, &[0, 3])).is_none());
    }

    #[test]
    fn star_and_cycle() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(
            steiner_exact_ids(&g, &terminals(5, &[1, 2, 3, 4]))
                .unwrap()
                .cost,
            5
        );
        let g = graph_from_edges(8, &(0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>());
        assert_eq!(
            steiner_exact_ids(&g, &terminals(8, &[0, 2, 4, 6]))
                .unwrap()
                .cost,
            7
        );
    }

    #[test]
    fn terminal_root_may_be_isolated_in_terms_of_spare_nodes() {
        // Terminals adjacent to each other: no extra nodes.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            steiner_exact_ids(&g, &terminals(4, &[1, 2])).unwrap().cost,
            2
        );
    }
}
