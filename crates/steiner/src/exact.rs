//! Exact Steiner solving: a node-weighted Dreyfus–Wagner dynamic program.
//!
//! The paper's Steiner problem minimizes the **number of nodes** of the
//! tree (Definition 8), and the pseudo-Steiner problem the number of
//! nodes on one side (Definition 9). Both are node-weighted Steiner
//! problems — unit weights and indicator weights respectively — so a
//! single DP serves as ground truth for Algorithms 1 and 2 and as the
//! exponential baseline the NP-hardness experiments (Theorem 2) push
//! until it blows up.
//!
//! The DP is Erickson–Monma–Veinott's form of Dreyfus–Wagner. The tree is
//! rooted at the first terminal `t₀`; for every mask `S` over the other
//! `k − 1` terminals, `dp[S][v]` is the least weight of a tree holding
//! `{tᵢ : i ∈ S} ∪ {v}`. Each mask takes two steps:
//!
//! 1. **merge** — `dp[S][v] = min dp[A][v] + dp[S∖A][v] − w(v)` over the
//!    splits of `S` (a terminal's own row is seeded at that terminal);
//! 2. **relax** — one multi-source Dijkstra over the CSR graph, seeded by
//!    the merged row, with `dp[S][u] ≤ dp[S][v] + w(u)` along every edge.
//!
//! The answer is `dp[all][t₀]`; the last mask's Dijkstra stops once `t₀`
//! settles. Time is `O(3^k·n + 2^k·(n + m)·log n)` for `k` terminals on
//! `n` nodes and `m` edges, and memory is the two flat tables of
//! `2^(k−1)·n` entries: the `u64` values and a `u32` back-pointer per entry
//! ("relaxed from neighbour `u`", or "seed or merge"). The tree is read
//! back from the back-pointers with an explicit stack; a merge re-finds
//! its split at that node.
//!
//! [`steiner_exact_node_weighted_budgeted`] is the governed version: the
//! DP table footprint is checked against the [`SolveBudget`] *before*
//! anything is allocated, the merge, relaxation and read-back loops tick
//! a [`CancelToken`], and a reconstruction inconsistency comes back as
//! [`SolveError::Internal`] instead of aborting the process.

use crate::{SolveError, SolveOutcome, SteinerInstance, SteinerTree};
use mcc_graph::{CancelToken, Graph, NodeId, NodeSet, SolveBudget, Stage};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const INF: u64 = u64::MAX / 4;

/// Back-pointer of a DP entry set by the seed or merge step rather than
/// relaxed from a neighbour. Node ids stay below it: a graph of `2³²`
/// nodes would need a 96 GiB table for two terminals.
const SEED: u32 = u32::MAX;

/// One pending heap entry of the relaxation: (distance, node).
type HeapEntry = Reverse<(u64, u32)>;

/// An exact solution: the tree plus its weighted cost.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// An optimal Steiner tree.
    pub tree: SteinerTree,
    /// Its cost: the sum of node weights over the tree's nodes.
    pub cost: u64,
}

/// Exact minimum-node Steiner tree (unit node weights). `None` when the
/// terminals are not connected in `g`.
///
/// ```
/// use mcc_graph::{builder::graph_from_edges, NodeId, NodeSet};
/// use mcc_steiner::{steiner_exact, SteinerInstance};
///
/// // A star: connecting three leaves must pass through the center.
/// let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
/// let terminals = NodeSet::from_nodes(4, [NodeId(1), NodeId(2), NodeId(3)]);
/// let sol = steiner_exact(&SteinerInstance::new(g, terminals)).unwrap();
/// assert_eq!(sol.cost, 4);
/// assert!(sol.tree.nodes.contains(NodeId(0)));
/// ```
pub fn steiner_exact(inst: &SteinerInstance) -> Option<ExactSolution> {
    let w = vec![1u64; inst.graph.node_count()];
    steiner_exact_node_weighted(&inst.graph, &inst.terminals, &w)
}

/// Exact minimum-weight Steiner tree under arbitrary non-negative node
/// weights. See module docs for the recurrence; the terminal count is the
/// exponential dimension.
///
/// # Panics
/// Panics when more than 24 terminals are supplied (the mask would not
/// fit sensible memory anyway). Use
/// [`steiner_exact_node_weighted_budgeted`] to get a structured
/// [`SolveError::Budget`] verdict instead.
pub fn steiner_exact_node_weighted(
    g: &Graph,
    terminals: &NodeSet,
    weights: &[u64],
) -> Option<ExactSolution> {
    let k = terminals.len();
    assert!(
        k <= 24,
        "Dreyfus–Wagner is exponential in |terminals|; got {k}"
    );
    let budget = SolveBudget::unbounded();
    let token = CancelToken::unbounded();
    match steiner_exact_node_weighted_budgeted(g, terminals, weights, &budget, &token) {
        Ok(sol) => Some(sol),
        Err(SolveError::Disconnected) => None,
        #[expect(
            clippy::panic,
            reason = "unbudgeted wrapper: residual errors are internal bugs; the budgeted twin is the production path"
        )]
        Err(e) => panic!("unbudgeted exact solve failed: {e}"),
    }
}

/// [`steiner_exact_node_weighted`] under a [`SolveBudget`].
///
/// Admission happens first: the terminal count against the 24-terminal
/// mask width ([`mcc_graph::budget::HARD_MAX_EXACT_TERMINALS`]) and the
/// *projected* DP footprint ([`mcc_graph::budget::dp_table_bytes`],
/// exactly the two tables allocated below) against `max_dp_bytes` — so an
/// oversized request is rejected in microseconds, before any table is
/// allocated. Which terminal counts reach the DP at all is the router's
/// call (`SolverConfig::max_exact_terminals`), not the budget's. The merge
/// step, the relaxations and the reconstruction all tick `token`, so a
/// wall-clock deadline interrupts mid-DP.
pub fn steiner_exact_node_weighted_budgeted(
    g: &Graph,
    terminals: &NodeSet,
    weights: &[u64],
    budget: &SolveBudget,
    token: &CancelToken,
) -> SolveOutcome<ExactSolution> {
    let _span = mcc_obs::span!(ExactDp);
    let n = g.node_count();
    assert_eq!(weights.len(), n, "one weight per node");
    let k = terminals.len();
    budget.admit_exact_dp(k, n)?;
    token.checkpoint(Stage::ExactDp)?;

    let Some(t0) = terminals.first() else {
        return Ok(ExactSolution {
            tree: SteinerTree {
                nodes: NodeSet::new(n),
                edges: vec![],
            },
            cost: 0,
        });
    };
    if k == 1 {
        return Ok(ExactSolution {
            tree: SteinerTree {
                nodes: NodeSet::from_nodes(n, [t0]),
                edges: vec![],
            },
            cost: weights[t0.index()],
        });
    }

    // Rooted at t0: mask bit i stands for ts[i], the i-th other terminal.
    let mut ts = Vec::with_capacity(k - 1);
    ts.extend(terminals.iter().skip(1));
    let rows = 1usize << (k - 1);
    let full = rows - 1;
    let mut dp = vec![INF; rows * n];
    let mut bp = vec![SEED; rows * n];
    // Every entry is a seed or a strict improvement along a directed
    // edge, so one relaxation never holds more than n + 2m entries.
    let mut heap: Vec<HeapEntry> = Vec::with_capacity(n + 2 * g.edge_count());
    for mask in 1..=full {
        let (done, rest) = dp.split_at_mut(mask * n);
        let row = &mut rest[..n];
        if mask.is_power_of_two() {
            let t = ts[mask.trailing_zeros() as usize].index();
            row[t] = weights[t];
        } else {
            merge(done, row, weights, mask, n, token)?;
        }
        let stop = (mask == full).then_some(t0.index());
        relax(
            g,
            weights,
            row,
            &mut bp[mask * n..(mask + 1) * n],
            stop,
            &mut heap,
            token,
        )?;
    }

    let cost = dp[full * n + t0.index()];
    if cost >= INF {
        return Err(SolveError::Disconnected);
    }
    let nodes = read_back(&dp, &bp, weights, &ts, (full, t0.index()), token)?;
    let tree = SteinerTree::from_cover(g, &nodes).ok_or_else(|| SolveError::Internal {
        stage: Stage::ExactDp,
        detail: "reconstructed cover is not connected".to_string(),
    })?;
    debug_assert_eq!(
        nodes.iter().map(|v| weights[v.index()]).sum::<u64>(),
        cost,
        "reconstruction must realize the DP cost"
    );
    // Certificate (debug builds only): the reconstructed tree is valid
    // and connects every terminal (the DP may use any node, so the
    // alive set is the full universe).
    debug_assert!(
        n > crate::certify::CHECK_STEINER_MAX_NODES
            || crate::certify::check_steiner_solution(g, &NodeSet::full(n), terminals, &tree),
        "exact DP reconstruction failed its own certificate"
    );
    Ok(ExactSolution { tree, cost })
}

/// The unordered splits `(A, S∖A)` of a mask with at least two bits, each
/// once: `A` runs over the proper submasks of `S` holding its lowest bit.
fn splits(mask: usize) -> impl Iterator<Item = (usize, usize)> {
    let high = mask & (mask - 1);
    let low = mask ^ high;
    let mut next = Some((high - 1) & high);
    std::iter::from_fn(move || {
        let s = next?;
        next = s.checked_sub(1).map(|p| p & high);
        Some((s | low, mask ^ s ^ low))
    })
}

/// The merge step of `mask`: `row[v]` becomes the cheapest join at `v` of
/// two subtrees over a split of the mask. `done` holds the rows of every
/// smaller mask.
fn merge(
    done: &[u64],
    row: &mut [u64],
    w: &[u64],
    mask: usize,
    n: usize,
    token: &CancelToken,
) -> SolveOutcome<()> {
    for (a, b) in splits(mask) {
        token.tick(Stage::ExactDp, n as u64)?;
        let (ra, rb) = (&done[a * n..(a + 1) * n], &done[b * n..(b + 1) * n]);
        for (v, cell) in row.iter_mut().enumerate() {
            let (x, y) = (ra[v], rb[v]);
            if x < INF && y < INF {
                *cell = (*cell).min(x + y - w[v]);
            }
        }
    }
    Ok(())
}

/// One multi-source Dijkstra over `g`, seeded by every finite entry of
/// `row`: afterwards `row[u] ≤ row[v] + w(u)` along every edge, and
/// `bp[u]` names the neighbour an improved entry was relaxed from. With
/// `stop`, the search ends once that node settles.
fn relax(
    g: &Graph,
    w: &[u64],
    row: &mut [u64],
    bp: &mut [u32],
    stop: Option<usize>,
    heap: &mut Vec<HeapEntry>,
    token: &CancelToken,
) -> SolveOutcome<()> {
    heap.clear();
    heap.extend(
        (0..row.len())
            .filter(|&v| row[v] < INF)
            .map(|v| Reverse((row[v], v as u32))),
    );
    // Heapify in place and hand the buffer back afterwards, so the
    // relaxations of all masks share one allocation.
    let mut queue = BinaryHeap::from(std::mem::take(heap));
    while let Some(Reverse((d, v))) = queue.pop() {
        let v = v as usize;
        if d > row[v] {
            continue;
        }
        if stop == Some(v) {
            break;
        }
        let nbrs = g.neighbors(NodeId::from_index(v));
        token.tick(Stage::ExactDp, 1 + nbrs.len() as u64)?;
        for &u in nbrs {
            let nd = d + w[u.index()];
            if nd < row[u.index()] {
                row[u.index()] = nd;
                bp[u.index()] = v as u32;
                queue.push(Reverse((nd, u.0)));
            }
        }
    }
    *heap = queue.into_vec();
    Ok(())
}

/// Reads the tree behind `dp[root]` back from the tables: walk the
/// back-pointers of one mask to the entry its value was seeded at, then
/// either stop at the mask's terminal or re-find the merge's split there
/// and continue with both halves.
fn read_back(
    dp: &[u64],
    bp: &[u32],
    w: &[u64],
    ts: &[NodeId],
    root: (usize, usize),
    token: &CancelToken,
) -> SolveOutcome<NodeSet> {
    let n = w.len();
    let internal = |detail: String| SolveError::Internal {
        stage: Stage::ExactDp,
        detail,
    };
    let mut nodes = NodeSet::new(n);
    // Pending masks are disjoint parts of the root mask: at most k − 1.
    let mut stack = Vec::with_capacity(ts.len());
    stack.push(root);
    // A correct read-back visits each table entry at most once; more
    // steps than entries means the back-pointers are cyclic.
    let mut steps = 0usize;
    while let Some((mask, mut v)) = stack.pop() {
        let row = mask * n;
        loop {
            steps += 1;
            if steps > dp.len() {
                return Err(internal(format!(
                    "back-pointers of mask {mask:b} do not end at a seed"
                )));
            }
            token.tick(Stage::ExactDp, 1)?;
            nodes.insert(NodeId::from_index(v));
            match bp[row + v] {
                SEED => break,
                u => v = u as usize,
            }
        }
        if mask.is_power_of_two() {
            if v != ts[mask.trailing_zeros() as usize].index() {
                return Err(internal(format!(
                    "mask {mask:b} is seeded at node {v}, not at its terminal"
                )));
            }
            continue;
        }
        let target = dp[row + v];
        debug_assert!(target < INF);
        let split = splits(mask).find(|&(a, b)| {
            let (x, y) = (dp[a * n + v], dp[b * n + v]);
            x < INF && y < INF && x + y - w[v] == target
        });
        // A DP value with no witness is a solver bug; surface it as data
        // so one bad query degrades instead of aborting the process.
        let Some((a, b)) = split else {
            return Err(internal(format!(
                "DP value {target} for mask {mask:b} at node {v} has no witness"
            )));
        };
        stack.push((a, v));
        stack.push((b, v));
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::{minimum_cover_bruteforce, side_minimum_cover_bruteforce};
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::BudgetKind;
    use std::time::Duration;

    fn solve_unit(g: &Graph, ts: &[u32]) -> Option<ExactSolution> {
        let terminals = NodeSet::from_nodes(g.node_count(), ts.iter().map(|&t| NodeId(t)));
        steiner_exact(&SteinerInstance::new(g.clone(), terminals))
    }

    #[test]
    fn two_terminals_is_shortest_path() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let s = solve_unit(&g, &[0, 2]).unwrap();
        assert_eq!(s.cost, 3); // 0-1-2
        assert!(s.tree.is_valid_tree(&g));
        assert!(s.tree.nodes.contains(NodeId(0)) && s.tree.nodes.contains(NodeId(2)));
    }

    #[test]
    fn star_center_is_used() {
        // Star with center 0 and leaves 1..4: tree over three leaves must
        // route through the center.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = solve_unit(&g, &[1, 2, 3]).unwrap();
        assert_eq!(s.cost, 4);
        assert!(s.tree.nodes.contains(NodeId(0)));
    }

    #[test]
    fn single_and_zero_terminals() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let s = solve_unit(&g, &[2]).unwrap();
        assert_eq!(s.cost, 1);
        let s = solve_unit(&g, &[]).unwrap();
        assert_eq!(s.cost, 0);
        assert!(s.tree.nodes.is_empty());
    }

    #[test]
    fn infeasible_returns_none() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(solve_unit(&g, &[0, 3]).is_none());
    }

    #[test]
    fn budgeted_reports_disconnection_as_error() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let terminals = NodeSet::from_nodes(4, [NodeId(0), NodeId(3)]);
        let budget = SolveBudget::default();
        let token = budget.start();
        let w = vec![1u64; 4];
        let e =
            steiner_exact_node_weighted_budgeted(&g, &terminals, &w, &budget, &token).unwrap_err();
        assert_eq!(e, SolveError::Disconnected);
    }

    #[test]
    fn dp_byte_budget_rejects_before_allocating() {
        // 24 terminals on a modest graph would need ~2^24 DP rows; a
        // small byte budget must refuse instantly (admission, not OOM).
        let g = graph_from_edges(30, &(0..29).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let terminals = NodeSet::from_nodes(30, (0..24).map(NodeId));
        let budget = SolveBudget {
            max_dp_bytes: 1 << 20,
            ..SolveBudget::default()
        };
        let token = budget.start();
        let w = vec![1u64; 30];
        let e =
            steiner_exact_node_weighted_budgeted(&g, &terminals, &w, &budget, &token).unwrap_err();
        assert_eq!(e.budget().unwrap().kind, BudgetKind::DpTableBytes);
    }

    #[test]
    fn expired_deadline_cancels_the_dp() {
        let g = graph_from_edges(64, &(0..63).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let terminals = NodeSet::from_nodes(64, (0..12).map(|i| NodeId(i * 5)));
        let budget = SolveBudget::with_deadline(Duration::ZERO);
        let token = budget.start();
        std::thread::sleep(Duration::from_millis(2));
        let w = vec![1u64; 64];
        let e =
            steiner_exact_node_weighted_budgeted(&g, &terminals, &w, &budget, &token).unwrap_err();
        assert_eq!(e.budget().unwrap().kind, BudgetKind::WallClockMs);
    }

    #[test]
    fn budgeted_matches_legacy_on_feasible_instances() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let terminals = NodeSet::from_nodes(5, [NodeId(0), NodeId(2)]);
        let budget = SolveBudget::default();
        let token = budget.start();
        let w = vec![1u64; 5];
        let s = steiner_exact_node_weighted_budgeted(&g, &terminals, &w, &budget, &token).unwrap();
        assert_eq!(s.cost, 3);
        assert!(s.tree.is_valid_tree(&g));
    }

    #[test]
    fn matches_bruteforce_minimum_cover() {
        // A 3×3 grid; terminals at three corners.
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
        let terminals = NodeSet::from_nodes(9, [NodeId(0), NodeId(2), NodeId(6)]);
        let s = steiner_exact(&SteinerInstance::new(g.clone(), terminals.clone())).unwrap();
        let bf = minimum_cover_bruteforce(&g, &terminals).unwrap();
        assert_eq!(s.cost as usize, bf.len());
        assert!(s.tree.is_valid_tree(&g));
        assert!(terminals.is_subset_of(&s.tree.nodes));
    }

    #[test]
    fn node_weights_steer_the_tree() {
        // Diamond: 0-1-3 and 0-2-3; node 1 heavy.
        let g = graph_from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let terminals = NodeSet::from_nodes(4, [NodeId(0), NodeId(3)]);
        let w = vec![1, 10, 1, 1];
        let s = steiner_exact_node_weighted(&g, &terminals, &w).unwrap();
        assert_eq!(s.cost, 3);
        assert!(s.tree.nodes.contains(NodeId(2)));
        assert!(!s.tree.nodes.contains(NodeId(1)));
    }

    #[test]
    fn zero_weights_model_pseudo_steiner() {
        // Side = {1}: route through 4-5 (weight 0 each) beats node 1.
        let g = graph_from_edges(6, &[(0, 1), (1, 3), (0, 4), (4, 5), (5, 3)]);
        let terminals = NodeSet::from_nodes(6, [NodeId(0), NodeId(3)]);
        let w = vec![0, 1, 0, 0, 0, 0];
        let s = steiner_exact_node_weighted(&g, &terminals, &w).unwrap();
        assert_eq!(s.cost, 0);
        assert!(!s.tree.nodes.contains(NodeId(1)));
        let side = NodeSet::from_nodes(6, [NodeId(1)]);
        let bf = side_minimum_cover_bruteforce(&g, &terminals, &side).unwrap();
        assert_eq!(bf.intersection(&side).len() as u64, s.cost);
    }

    #[test]
    fn four_terminals_on_cycle() {
        let g = graph_from_edges(8, &(0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>());
        let s = solve_unit(&g, &[0, 2, 4, 6]).unwrap();
        // Connecting alternating nodes of C8 needs 7 nodes (all but one).
        assert_eq!(s.cost, 7);
        assert!(s.tree.is_valid_tree(&g));
    }
}
