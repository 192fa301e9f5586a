//! Exact Steiner solving: a node-weighted Dreyfus–Wagner dynamic program
//! on 0/1 node weights.
//!
//! The paper's Steiner problem minimizes the **number of nodes** of the
//! tree (Definition 8), and the pseudo-Steiner problem the number of
//! nodes on one side (Definition 9). Both are node-weighted Steiner
//! problems — unit weights and side indicators respectively — so a single
//! DP serves as ground truth for Algorithms 1 and 2 and as the
//! exponential baseline the NP-hardness experiments (Theorem 2) push
//! until it blows up. Those are the only objectives the paper has, and
//! the DP's contract is exactly theirs: every node weighs 0 or 1.
//!
//! The DP is Erickson–Monma–Veinott's form of Dreyfus–Wagner. The tree is
//! rooted at the first terminal `t₀`; for every mask `S` over the other
//! `k − 1` terminals, `dp[S][v]` is the least weight of a tree holding
//! `{tᵢ : i ∈ S} ∪ {v}`. Each mask takes two steps:
//!
//! 1. **merge** — `dp[S][v] = min dp[A][v] + dp[S∖A][v] − w(v)` over the
//!    splits of `S` (a terminal's own row is seeded at that terminal);
//! 2. **relax** — one multi-source shortest-path pass over the graph,
//!    seeded by the merged row, with `dp[S][u] ≤ dp[S][v] + w(u)` along
//!    every edge.
//!
//! With 0/1 weights a relaxation from value `d` lands at `d` (a zero-cost
//! node) or at `d + 1`, so the relax needs no heap and no per-edge
//! relaxation. The row's finite entries are listed by value, and the
//! pass settles one level of value at a time. Each node on a level offers
//! its neighbours not yet seen — `row(v) & !seen`, one word of its dense
//! bit row at a time, or its CSR row where it has no dense one. An
//! offered zero-cost node joins the level being settled, any other is
//! queued for the next one, and a seed that was reached first is skipped.
//! Every node is offered once per relax, not once per incident edge.
//!
//! The answer is `dp[all][t₀]`; the last mask's relax stops once `t₀`'s
//! entry is final. Time is `O(3^k·n + 2^k·(n + m))` for `k` terminals on
//! `n` nodes and `m` edges: a relax is `O(n + m)` whatever the number of
//! levels, since under `Graph`'s default threshold a node has a dense
//! row only when its `⌈n/64⌉` words cost no more than its degree. Memory is the two flat tables of `2^(k−1)·n` entries: the
//! `u64` values and a `u32` back-pointer per entry ("relaxed from
//! neighbour `u`", or "seed or merge"). The tree is read back from the
//! back-pointers with an explicit stack; a merge re-finds its split at
//! that node.
//!
//! [`steiner_exact_node_weighted_budgeted`] is the governed version: a
//! weight other than 0 or 1 is refused, and the DP table footprint is
//! checked against the [`SolveBudget`], *before* anything is allocated;
//! the merge, relaxation and read-back loops tick a [`CancelToken`], and
//! a reconstruction inconsistency comes back as [`SolveError::Internal`]
//! instead of aborting the process.

use crate::{SolveError, SolveOutcome, SteinerInstance, SteinerTree};
use mcc_graph::{CancelToken, Graph, NodeId, NodeSet, SolveBudget, Stage};

const INF: u64 = u64::MAX / 4;

/// Back-pointer of a DP entry set by the seed or merge step rather than
/// relaxed from a neighbour. Node ids stay below it: a graph of `2³²`
/// nodes would need a 96 GiB table for two terminals.
const SEED: u32 = u32::MAX;

/// The end of a list of seeds of one value.
const END: u32 = u32::MAX;

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

/// Exact minimum-weight Steiner tree under 0/1 node weights, one per node
/// of `g`: all 1 for Steiner, a side indicator for pseudo-Steiner. See
/// module docs for the recurrence; the terminal count is the exponential
/// dimension.
///
/// # Panics
/// Panics when more than 24 terminals are supplied (the mask would not
/// fit sensible memory anyway), when `weights` does not hold one weight
/// per node, or when a weight is neither 0 nor 1. Use
/// [`steiner_exact_node_weighted_budgeted`] to get a structured
/// [`SolveError::Budget`] or [`SolveError::Internal`] verdict instead.
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
/// The weights are checked first: a slice whose length is not `g`'s node
/// count, or a weight other than 0 or 1, is refused as
/// [`SolveError::Internal`] at [`Stage::ExactDp`].
///
/// Admission comes next: the terminal count against the 24-terminal
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
    let refuse = |detail: String| SolveError::Internal {
        stage: Stage::ExactDp,
        detail,
    };
    if weights.len() != n {
        return Err(refuse(format!("{} weights for {n} nodes", weights.len())));
    }
    if let Some(v) = weights.iter().position(|&w| w > 1) {
        return Err(refuse(format!(
            "node {v} weighs {}; the DP takes 0/1 weights",
            weights[v]
        )));
    }
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
    let mut buckets = Buckets {
        head: vec![END; 2 * n + 2],
        link: vec![END; n],
        seen: vec![0; n.div_ceil(64)],
        cur: Vec::with_capacity(n),
        next: Vec::with_capacity(n),
    };
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
            &mut buckets,
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

/// The relaxation's buffers, sized once per solve so that no mask
/// allocates.
struct Buckets {
    /// `head[d]`: the first seed of value `d`, or [`END`]. A merged value
    /// is at most `2n` (two subtrees of at most `n` unit nodes each), and
    /// each level takes its list, so a relax that runs to the end leaves
    /// every list empty.
    head: Vec<u32>,
    /// `link[v]`: the seed after `v` in its value's list.
    link: Vec<u32>,
    /// `⌈n/64⌉` words, bit `v` set once `v`'s entry is final: it is on
    /// the level being settled, or queued for the next one. Every node is
    /// offered at most once per relax.
    seen: Vec<u64>,
    /// The nodes of the level being settled; zero-cost nodes join it
    /// while it is swept. Each node enters `cur` or `next` at most once
    /// per relax, so `n` entries suffice for both.
    cur: Vec<u32>,
    /// The nodes of the level after it.
    next: Vec<u32>,
}

/// One multi-source shortest-path pass over `g` under 0/1 weights `w`,
/// seeded by every finite entry of `row`: afterwards `row[u] ≤ row[v] +
/// w(u)` along every edge, and `bp[u]` names the neighbour an improved
/// entry was relaxed from.
///
/// The pass is level-synchronous. Level `d` holds the unseen seeds of
/// value `d` and the nodes the previous level queued; each of its nodes
/// offers its unseen neighbours ([`Graph::visit_unseen_neighbors`]), one
/// word of its dense row at a time (`row(v) & !seen`) or, for a CSR-only
/// row, one neighbour at a time. An offered zero-cost node settles at `d`
/// and joins the level; any other settles at `min(row[u], d + 1)` and is
/// queued for the next level. Either way its back-pointer names the level
/// node that offered it, unless its seed already held that value. A node
/// is offered once per relax, not once per incident edge. No step scans a
/// word per level: a dense row's `⌈n/64⌉` words are paid for by its
/// degree, which the default threshold makes at least that many, so the
/// pass is `O(n + m)` whatever the number of levels.
///
/// With `stop`, the pass ends once that node's entry is final and leaves
/// the seed lists of later levels behind, so it is passed only on a
/// solve's last relax.
fn relax(
    g: &Graph,
    w: &[u64],
    row: &mut [u64],
    bp: &mut [u32],
    stop: Option<usize>,
    b: &mut Buckets,
    token: &CancelToken,
) -> SolveOutcome<()> {
    let Buckets {
        head,
        link,
        seen,
        cur,
        next,
    } = b;
    for (v, &d) in row.iter().enumerate() {
        if d < INF {
            link[v] = std::mem::replace(&mut head[d as usize], v as u32);
        }
    }
    seen.fill(0);
    cur.clear();
    next.clear();
    let mut level = 0usize;
    loop {
        // An empty level jumps to the next one holding a seed.
        if cur.is_empty() {
            let rest = head.get(level..).unwrap_or_default();
            let Some(skip) = rest.iter().position(|&s| s != END) else {
                return Ok(());
            };
            level += skip;
        }
        if let Some(first) = head.get_mut(level) {
            let mut s = std::mem::replace(first, END);
            while s != END {
                let v = s as usize;
                s = link[v];
                // A seed reached earlier has a smaller or equal final
                // value already.
                let (wi, bit) = (v / 64, 1u64 << (v % 64));
                if seen[wi] & bit == 0 {
                    seen[wi] |= bit;
                    cur.push(v as u32);
                    if stop == Some(v) {
                        return Ok(());
                    }
                }
            }
        }
        let d = level as u64;
        let mut i = 0;
        while let Some(&v) = cur.get(i) {
            i += 1;
            let v = NodeId(v);
            token.tick(Stage::ExactDp, 1 + g.degree(v) as u64)?;
            // Settles each unseen neighbour `u` of `v`; `true` at `stop`.
            let stopped = g.visit_unseen_neighbors(v, seen, |u| {
                let u = u.index();
                if w[u] == 0 {
                    debug_assert!(row[u] > d, "an unseen node is above the level");
                    row[u] = d;
                    bp[u] = v.0;
                    cur.push(u as u32);
                } else {
                    if d + 1 < row[u] {
                        row[u] = d + 1;
                        bp[u] = v.0;
                    }
                    next.push(u as u32);
                }
                stop == Some(u)
            });
            if stopped {
                return Ok(());
            }
        }
        cur.clear();
        std::mem::swap(cur, next);
        level += 1;
    }
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
        // Terminals 0 and 4 (weight 1 each): a cost-1 shortcut through
        // node 1 against a longer all-zero detour 2-3-5. Unit weights take
        // the shortcut; 0/1 weights must take the detour.
        let g = graph_from_edges(6, &[(0, 1), (1, 4), (0, 2), (2, 3), (3, 5), (5, 4)]);
        let terminals = NodeSet::from_nodes(6, [NodeId(0), NodeId(4)]);
        assert_eq!(solve_unit(&g, &[0, 4]).unwrap().cost, 3);
        let w = vec![1, 1, 0, 0, 1, 0];
        let s = steiner_exact_node_weighted(&g, &terminals, &w).unwrap();
        assert_eq!(s.cost, 2);
        assert!(s.tree.is_valid_tree(&g));
        assert!(!s.tree.nodes.contains(NodeId(1)));
        for v in [2, 3, 5] {
            assert!(s.tree.nodes.contains(NodeId(v)));
        }
    }

    #[test]
    fn weights_outside_the_contract_are_typed_errors() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let terminals = NodeSet::from_nodes(4, [NodeId(0), NodeId(3)]);
        let budget = SolveBudget::default();
        let token = budget.start();
        for w in [vec![1, 2, 1, 1], vec![1, 1, 1], vec![1; 5]] {
            let e = steiner_exact_node_weighted_budgeted(&g, &terminals, &w, &budget, &token)
                .unwrap_err();
            assert!(
                matches!(
                    e,
                    SolveError::Internal {
                        stage: Stage::ExactDp,
                        ..
                    }
                ),
                "{w:?}: {e:?}"
            );
        }
    }

    #[test]
    fn long_zero_weight_chain() {
        // A chain 0..=L of zero-cost nodes with terminals 0, L/2 and L
        // (weight 1 each), and a weight-1 pendant on every chain node.
        // Zero-cost nodes settle on the level that reached them; the last
        // mask's merged row holds stale seeds (value 3 left of L/2, beaten
        // by the zero-cost relax from value 2), and it stops at t₀ = 0.
        const L: usize = 200;
        let n = 2 * (L + 1);
        let mut edges: Vec<(usize, usize)> = (0..L).map(|i| (i, i + 1)).collect();
        edges.extend((0..=L).map(|i| (i, L + 1 + i)));
        let g = graph_from_edges(n, &edges);
        let ts = [0, L / 2, L];
        let terminals = NodeSet::from_nodes(n, ts.map(NodeId::from_index));
        let w: Vec<u64> = (0..n)
            .map(|v| u64::from(v > L || ts.contains(&v)))
            .collect();
        let s = steiner_exact_node_weighted(&g, &terminals, &w).unwrap();
        assert_eq!(s.cost, 3);
        assert!(s.tree.is_valid_tree(&g));
        assert_eq!(
            s.tree.nodes,
            NodeSet::from_nodes(n, (0..=L).map(NodeId::from_index))
        );
    }

    /// The relax is linear in the graph, whatever its number of levels.
    /// A pass that touched every word of one `n`-bit mask on each of a
    /// path's levels would be `Θ(n²/64)`: that form took 2.0 s here
    /// against 29 ms for this one (release, 2-vCPU x86-64 VM), more than
    /// ten times the deadline.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a wall-clock bound only holds for release builds"
    )]
    fn budgeted_dp_is_linear_on_a_long_sparse_path() {
        const N: usize = 1 << 18;
        let mut g = graph_from_edges(N, &(0..N - 1).map(|i| (i, i + 1)).collect::<Vec<_>>());
        g.rebuild_bit_rows(usize::MAX);
        assert!(!g.has_dense_rows());
        let terminals = NodeSet::from_nodes(N, [0, N / 2, N - 1].map(NodeId::from_index));
        let budget = SolveBudget::with_deadline(Duration::from_millis(150));
        let token = budget.start();
        let w = vec![1u64; N];
        let s = steiner_exact_node_weighted_budgeted(&g, &terminals, &w, &budget, &token)
            .expect("a linear relax answers within the deadline");
        assert_eq!(s.cost, N as u64);
        assert!(token.elapsed() < Duration::from_millis(150));
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
