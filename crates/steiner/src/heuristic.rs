//! A Kou–Markowsky–Berman-style Steiner heuristic (2-approximation on
//! edge counts), used as the off-class baseline in the experiments and as
//! the last rung of the solver's degradation ladder (cheap enough to run
//! inside whatever deadline remains after an exact attempt trips).
//!
//! [`steiner_kmb`] takes the ladder's [`CancelToken`] and returns a
//! [`SolveOutcome`]. Everything runs on the schema graph itself; no
//! subgraph is copied.
//!
//! 1. **Closure rows.** The metric closure of the `k` terminals is one
//!    BFS per terminal, into two flat `k·n` `u32` buffers: distances and
//!    BFS parents. A queued node with a dense bit row discovers `row(v) &
//!    !seen`, one word at a time; a CSR-only row is walked entry by entry.
//!    A row stops as soon as it has discovered every other terminal,
//!    since only terminal distances enter the closure.
//! 2. **Prim** over the closure, ties to the lowest terminal.
//! 3. **Paths.** Each closure edge the spanning tree takes is expanded
//!    into a shortest path by walking its source terminal's parent row
//!    back from the target; no second search runs. The path nodes form
//!    the union.
//! 4. **Pruning.** Algorithm 2's Step 1 runs in place with the union as
//!    the alive set, in increasing id order, and the surviving
//!    nonredundant cover is spanned on the graph itself. Its block pass
//!    marks the graph's own tree of blocks, as Algorithm 2's does: the
//!    union connects the terminals, and that is all the pass needs.
//!
//! ## Same trees as a subgraph copy
//!
//! The textbook form runs a full BFS per terminal, a second BFS per
//! closure edge for its path, and Algorithm 2 on a copy of the subgraph
//! the union induces. This form returns node- and edge-identical trees:
//!
//! - A BFS discovers nodes in a fixed order, because adjacency rows are
//!   sorted and every neighbour loop walks them in increasing id order;
//!   a bit row's words and bits are read in increasing id order too.
//!   So a row's parents equal those of a fresh BFS from the same
//!   terminal for every node it discovers, and the nodes on a path to a
//!   terminal are discovered before that terminal. Stopping early
//!   changes no terminal distance and no parent on any terminal path.
//! - The sweep tests connectivity within the alive set, which reads only
//!   edges between alive nodes: over the union it is the sweep on the
//!   induced subgraph, node for node. The block-local sweep keeps
//!   exactly the whole-graph sweep's node set for any alive set and
//!   order (the `algorithm2` module docs), and the spanning tree of the
//!   cover is built on the graph itself either way.
//!
//! `tests/kmb_differential.rs` keeps the textbook form as an oracle and
//! checks equal trees and equal disconnection verdicts.
//!
//! ## Scratch
//!
//! The rows, the BFS queue and its `seen` mask, and the sweep's scratch
//! are allocated per call, each once from `k` and `n`, and freed on
//! return. The solver's own workspace is not used: the engine keeps one
//! solver per worker and schema, and rows kept warm in each of them cost
//! more resident memory than allocating them per call costs time
//! (EXPERIMENTS §E23).

use crate::algorithm2::prune_and_span_in;
use crate::outcome::check_terminal_universe;
use crate::{SolveError, SolveOutcome, SteinerTree};
use mcc_graph::{CancelToken, Graph, NodeId, NodeSet, Stage, Workspace, INFINITE_DISTANCE};

/// Runs the KMB-style heuristic under a [`CancelToken`]: a tick per
/// BFS row / Prim round / pruning candidate. Disconnection is
/// [`SolveError::Disconnected`], and a terminal set over another
/// universe than `g`'s nodes is refused as [`SolveError::Internal`]
/// before any work. This is the fallback rung of the degradation
/// ladder, so it shares the ladder's one token — a deadline spans the
/// exact attempt *and* this fallback.
pub fn steiner_kmb(
    g: &Graph,
    terminals: &NodeSet,
    token: &CancelToken,
) -> SolveOutcome<SteinerTree> {
    let _span = mcc_obs::span!(Kmb);
    let n = g.node_count();
    check_terminal_universe(terminals, n, Stage::Heuristic)?;
    token.checkpoint(Stage::Heuristic)?;
    let ts: Vec<NodeId> = terminals.to_vec();
    let k = ts.len();
    if k == 0 {
        return Ok(SteinerTree {
            nodes: NodeSet::new(n),
            edges: vec![],
        });
    }
    // Closure rows for terminals only. Each is charged a full BFS,
    // |V| + 2|A| units, whether or not it stops early.
    let row_cost = (n + 2 * g.edge_count()) as u64;
    let mut dist = vec![INFINITE_DISTANCE; k * n];
    let mut parent = vec![0u32; k * n];
    let mut queue = Vec::with_capacity(n);
    let mut seen = vec![0u64; n.div_ceil(64)];
    for (i, &t) in ts.iter().enumerate() {
        token.tick(Stage::Heuristic, row_cost)?;
        let row = i * n..(i + 1) * n;
        closure_row(
            g,
            terminals,
            t,
            &mut dist[row.clone()],
            &mut parent[row],
            &mut queue,
            &mut seen,
        );
    }
    let dist_to = |i: usize, j: usize| dist[i * n + ts[j].index()];
    // Prim over the closure; the pruning's scratch holds the union.
    let mut ws = Workspace::with_capacity(n);
    let mut union = ws.take_set_buf(n);
    let mut in_tree = vec![false; k];
    let mut best: Vec<u32> = (0..k).map(|j| dist_to(0, j)).collect();
    let mut best_from = vec![0usize; k];
    in_tree[0] = true;
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
        // Expand the chosen closure edge along the source row's parents;
        // the source is in the union already.
        let (src, row) = (ts[best_from[i]], &parent[best_from[i] * n..]);
        let mut v = ts[i];
        while v != src {
            union.insert(v);
            v = NodeId(row[v.index()]);
        }
        for j in 0..k {
            if !in_tree[j] && dist_to(i, j) < best[j] {
                best[j] = dist_to(i, j);
                best_from[j] = i;
            }
        }
    }
    // Prune to a nonredundant cover, in place, then span.
    debug_assert!(
        mcc_graph::terminals_connected_in(&mut ws, g, &union, terminals),
        "the union of closure paths must connect the terminals"
    );
    let order = union.to_vec();
    let _prune = mcc_obs::span!(Algorithm2);
    token.checkpoint(Stage::Algorithm2)?;
    prune_and_span_in(&mut ws, g, terminals, &order, union, token)
}

/// One closure row: a BFS from terminal `t` over the whole graph that
/// writes each discovered node's distance and BFS parent, and stops once
/// every terminal has been discovered. A queued node is expanded by
/// [`Graph::visit_unseen_neighbors`]: `row(v) & !seen` one word at a time
/// when it has a dense row, its CSR row otherwise. Both append new nodes
/// in increasing id, so the queue order, the parents and the stop are the
/// same whichever form a row has. `queue` is an empty buffer with room
/// for `n` nodes, and is left empty; `seen` holds `⌈n/64⌉` words, and is
/// cleared on entry.
fn closure_row(
    g: &Graph,
    terminals: &NodeSet,
    t: NodeId,
    dist: &mut [u32],
    parent: &mut [u32],
    queue: &mut Vec<NodeId>,
    seen: &mut [u64],
) {
    let mut missing = terminals.len() - 1;
    seen.fill(0);
    seen[t.index() / 64] |= 1 << (t.index() % 64);
    dist[t.index()] = 0;
    queue.push(t);
    let mut head = 0;
    while missing > 0 && head < queue.len() {
        let v = queue[head];
        head += 1;
        let dv = dist[v.index()] + 1;
        // Discovers each unseen neighbour `u`, and stops at the last
        // terminal; the loop condition then ends the row.
        g.visit_unseen_neighbors(v, seen, |u| {
            dist[u.index()] = dv;
            parent[u.index()] = v.0;
            queue.push(u);
            if terminals.contains(u) {
                missing -= 1;
            }
            missing == 0
        });
    }
    queue.clear();
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

    fn kmb(g: &Graph, p: &NodeSet) -> SolveOutcome<SteinerTree> {
        steiner_kmb(g, p, &CancelToken::unbounded())
    }

    #[test]
    fn two_terminals_gives_shortest_path() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let t = kmb(&g, &terminals(5, &[0, 2])).unwrap();
        assert_eq!(t.node_cost(), 3);
        assert!(t.is_valid_tree(&g));
    }

    #[test]
    fn star_three_leaves() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let t = kmb(&g, &terminals(5, &[1, 2, 3])).unwrap();
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
            let h = kmb(&g, &p).unwrap();
            let e = steiner_exact(&SteinerInstance::new(g.clone(), p.clone())).unwrap();
            assert!(h.node_cost() as u64 <= 2 * e.cost, "ts={ts:?}");
            assert!(h.node_cost() as u64 >= e.cost);
            assert!(p.is_subset_of(&h.nodes));
        }
    }

    #[test]
    fn disconnected_terminals_none() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            kmb(&g, &terminals(4, &[0, 3])),
            Err(SolveError::Disconnected)
        );
    }

    #[test]
    fn budgeted_solves_within_a_generous_deadline() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let token = SolveBudget::with_deadline(Duration::from_secs(30)).start();
        let t = steiner_kmb(&g, &terminals(5, &[0, 2]), &token).unwrap();
        assert_eq!(t.node_cost(), 3);
    }

    #[test]
    fn budgeted_trips_on_expired_deadline() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let token = SolveBudget::with_deadline(Duration::ZERO).start();
        std::thread::sleep(Duration::from_millis(2));
        let e = steiner_kmb(&g, &terminals(5, &[0, 2]), &token).unwrap_err();
        assert_eq!(e.budget().unwrap().kind, BudgetKind::WallClockMs);
    }

    #[test]
    fn empty_terminals() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let t = kmb(&g, &terminals(2, &[])).unwrap();
        assert_eq!(t.node_cost(), 0);
    }
}
