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
//! `k − |P̄|`) rather than few terminals.
//!
//! [`steiner_exact_ids_budgeted`] is the governed entry point: each DFS
//! node ticks the [`CancelToken`], so an adversarial instance stops at
//! the deadline instead of enumerating forever.

use crate::{ExactSolution, SolveError, SolveOutcome, SteinerTree};
use mcc_graph::{bfs_distances, CancelToken, Graph, NodeId, NodeSet, Stage, INFINITE_DISTANCE};

/// Exact minimum-node Steiner tree by iterative deepening. Returns
/// `None` when the terminals are disconnected. Equivalent to
/// [`crate::steiner_exact`] (unit weights), by a different algorithm.
pub fn steiner_exact_ids(g: &Graph, terminals: &NodeSet) -> Option<ExactSolution> {
    match steiner_exact_ids_budgeted(g, terminals, &CancelToken::unbounded()) {
        Ok(sol) => Some(sol),
        Err(SolveError::Disconnected) => None,
        #[expect(
            clippy::panic,
            reason = "unbudgeted wrapper: residual errors are internal bugs; the budgeted twin is the production path"
        )]
        Err(e) => panic!("unbudgeted iterative-deepening solve failed: {e}"),
    }
}

/// [`steiner_exact_ids`] under a [`CancelToken`]: a tick per search node,
/// disconnection as [`SolveError::Disconnected`], and the "spanning set
/// always succeeds" invariant surfaced as [`SolveError::Internal`]
/// instead of a panic.
pub fn steiner_exact_ids_budgeted(
    g: &Graph,
    terminals: &NodeSet,
    token: &CancelToken,
) -> SolveOutcome<ExactSolution> {
    let n = g.node_count();
    assert_eq!(terminals.capacity(), n, "terminal universe mismatch");
    token.checkpoint(Stage::ExactIds)?;
    if terminals.is_empty() {
        return Ok(ExactSolution {
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
            return Err(SolveError::Disconnected);
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
            token,
            budget: k,
            chosen: NodeSet::from_nodes(n, [root]),
            missing: {
                let mut m = terminals.clone();
                m.remove(root);
                m
            },
        };
        let mut forbidden = NodeSet::new(n);
        if let Some(nodes) = state.dfs(&mut forbidden)? {
            let tree = SteinerTree::from_cover(g, &nodes).ok_or_else(|| SolveError::Internal {
                stage: Stage::ExactIds,
                detail: "grown node set is not connected".to_string(),
            })?;
            return Ok(ExactSolution {
                cost: tree.node_cost() as u64,
                tree,
            });
        }
    }
    // The spanning set of the component succeeds by k = n; reaching here
    // means the prunes are unsound — degrade one query, don't abort.
    Err(SolveError::Internal {
        stage: Stage::ExactIds,
        detail: format!("iterative deepening exhausted k = {n} without a spanning witness"),
    })
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
    token: &'a CancelToken,
    budget: usize,
    chosen: NodeSet,
    missing: NodeSet,
}

impl SearchState<'_> {
    /// Depth-first growth. `forbidden` nodes were declined earlier on
    /// this branch. Returns a connected superset of the terminals with
    /// at most `budget` nodes, or `None`.
    fn dfs(&mut self, forbidden: &mut NodeSet) -> SolveOutcome<Option<NodeSet>> {
        // Each search node costs a restricted BFS: charge |V| units.
        self.token
            .tick(Stage::ExactIds, self.g.node_count() as u64)?;
        if self.missing.is_empty() {
            return Ok(Some(self.chosen.clone()));
        }
        if self.chosen.len() >= self.budget {
            return Ok(None);
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
                return Ok(None);
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
            // Restore before returning in every case (callers own the
            // state; a budget trip must not leave it half-mutated).
            self.chosen.remove(u);
            if was_missing {
                self.missing.insert(u);
            }
            match hit {
                Ok(Some(hit)) => {
                    for &w in &locally_forbidden {
                        forbidden.remove(w);
                    }
                    return Ok(Some(hit));
                }
                Ok(None) => {}
                Err(e) => {
                    for &w in &locally_forbidden {
                        forbidden.remove(w);
                    }
                    return Err(e);
                }
            }
            // Exclude u for the rest of this branch (don't-look).
            forbidden.insert(u);
            locally_forbidden.push(u);
        }
        for &w in &locally_forbidden {
            forbidden.remove(w);
        }
        Ok(None)
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
    use mcc_graph::{BudgetKind, SolveBudget};
    use std::time::Duration;

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
    fn budgeted_cancels_on_expired_deadline() {
        let g = graph_from_edges(40, &(0..39).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let p = terminals(40, &[0, 13, 26, 39]);
        let token = SolveBudget::with_deadline(Duration::ZERO).start();
        std::thread::sleep(Duration::from_millis(2));
        let e = steiner_exact_ids_budgeted(&g, &p, &token).unwrap_err();
        assert_eq!(e.budget().unwrap().kind, BudgetKind::WallClockMs);
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
