//! Differential suite for the exact Dreyfus–Wagner DP.
//!
//! The production DP (`mcc_steiner::exact`) takes 0/1 node weights, roots
//! the tree at one terminal, relaxes each mask with one multi-source
//! level-synchronous sweep (each node on a level offers its unseen
//! neighbours a bit-row word or a CSR entry at a time) and reads the tree
//! back from per-mask back-pointers. The oracle below is the earlier textbook form, kept
//! verbatim with its binary heap and general weights: all-pairs
//! node-weighted Dijkstra, an `O(2^k·n²)` relaxation through the distance
//! matrix and a recursive argmin replay. A third, unrelated algorithm — iterative
//! deepening over connected node sets (`steiner_exact_ids`) — checks both
//! on unit weights where it is fast.
//!
//! Instances are seeded random bipartite graphs of up to ~100 nodes with
//! `k ≤ 8` terminals (plus a few graphs above the debug certificate's
//! node cap), under three 0/1 weight sets: unit (Steiner), a side
//! indicator (pseudo-Steiner) and random 0/1 weights with about a third
//! zeros. The last puts zero-cost nodes next to each other, which the
//! bipartite side indicator never does; that exercises the sweep's
//! same-level joins and the acyclicity of the back-pointers. Costs
//! must agree exactly, and every tree must pass `check_steiner_solution`
//! and realize its reported cost. The sweep reads dense bit rows and CSR
//! rows in different code, so one test also solves each graph with a
//! dense row for every node and with CSR rows only
//! (`Graph::rebuild_bit_rows`): the costs must match the graph as built,
//! and a repeated solve must return the identical tree.
//!
//! The sweep is sized for release builds (`cargo test --release -p
//! mcc-steiner --test exact_differential`) and stays a few seconds in
//! debug.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_gen::{random_bipartite, random_terminals, rng};
use mcc_graph::connectivity::component_of;
use mcc_graph::{BipartiteGraph, CancelToken, Graph, NodeId, NodeSet, Side, Stage};
use mcc_steiner::{
    check_steiner_solution, steiner_exact_ids, steiner_exact_node_weighted, ExactSolution,
    SolveError, SolveOutcome, SteinerTree, CHECK_STEINER_MAX_NODES,
};
use rand::Rng;

/// The all-pairs matrix form of the DP, as it stood before the rooted
/// multi-source rewrite.
mod oracle {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const INF: u64 = u64::MAX / 4;

    pub fn steiner_exact_matrix(
        g: &Graph,
        terminals: &NodeSet,
        weights: &[u64],
        token: &CancelToken,
    ) -> SolveOutcome<ExactSolution> {
        let n = g.node_count();
        assert_eq!(weights.len(), n, "one weight per node");
        let ts: Vec<NodeId> = terminals.to_vec();
        let k = ts.len();
        token.checkpoint(Stage::ExactDp)?;

        if k == 0 {
            return Ok(ExactSolution {
                tree: SteinerTree {
                    nodes: NodeSet::new(n),
                    edges: vec![],
                },
                cost: 0,
            });
        }
        if k == 1 {
            let t = ts[0];
            return Ok(ExactSolution {
                tree: SteinerTree {
                    nodes: NodeSet::from_nodes(n, [t]),
                    edges: vec![],
                },
                cost: weights[t.index()],
            });
        }

        // Node-weighted shortest paths: dist[u][v] = min over u→v paths of
        // Σ w(x) over path nodes except u; parent pointers for extraction.
        let mut dist = vec![vec![INF; n]; n];
        let mut parent = vec![vec![usize::MAX; n]; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for u in 0..n {
            dijkstra_from(
                g,
                weights,
                u,
                &mut dist[u],
                &mut parent[u],
                &mut heap,
                token,
            )?;
        }

        // dp[mask][v] = min weight of a tree containing {t_i : i ∈ mask} ∪ {v}.
        let full: usize = (1 << k) - 1;
        let mut dp = vec![vec![INF; n]; full + 1];
        for (i, &t) in ts.iter().enumerate() {
            let row = &mut dp[1 << i];
            for v in 0..n {
                let d = dist[t.index()][v];
                if d < INF {
                    row[v] = weights[t.index()] + d;
                }
            }
        }
        // One merge buffer reused across all 2^k masks (refilled, not
        // re-allocated, per iteration).
        let mut tmp = vec![INF; n];
        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            // Merge step at every node, then one relaxation through the
            // distance matrix.
            tmp.fill(INF);
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let rest = mask ^ sub;
                if sub < rest {
                    // each unordered split once
                    token.tick(Stage::ExactDp, n as u64)?;
                    for v in 0..n {
                        let (a, b) = (dp[sub][v], dp[rest][v]);
                        if a < INF && b < INF {
                            let c = a + b - weights[v];
                            if c < tmp[v] {
                                tmp[v] = c;
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            let row = &mut dp[mask];
            for v in 0..n {
                token.tick(Stage::ExactDp, n as u64)?;
                let mut best = tmp[v];
                for u in 0..n {
                    if tmp[u] < INF && dist[u][v] < INF {
                        best = best.min(tmp[u] + dist[u][v]);
                    }
                }
                row[v] = best;
            }
        }

        // Root the answer at t_0.
        let t0 = ts[0];
        let rest_mask = full & !1;
        let cost = dp[rest_mask][t0.index()];
        if cost >= INF {
            return Err(SolveError::Disconnected);
        }

        // Reconstruct by replaying the argmins.
        let mut nodes = NodeSet::new(n);
        nodes.insert(t0);
        reconstruct(
            g,
            weights,
            &ts,
            &dist,
            &parent,
            &dp,
            rest_mask,
            t0.index(),
            &mut nodes,
            token,
        )?;
        let tree = SteinerTree::from_cover(g, &nodes).ok_or_else(|| SolveError::Internal {
            stage: Stage::ExactDp,
            detail: "reconstructed cover is not connected".to_string(),
        })?;
        Ok(ExactSolution { tree, cost })
    }

    fn dijkstra_from(
        g: &Graph,
        w: &[u64],
        src: usize,
        dist: &mut [u64],
        parent: &mut [usize],
        heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
        token: &CancelToken,
    ) -> SolveOutcome<()> {
        dist[src] = 0;
        heap.clear();
        heap.push(Reverse((0, src)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v] {
                continue;
            }
            let nbrs = g.neighbors(NodeId::from_index(v));
            token.tick(Stage::ExactDp, 1 + nbrs.len() as u64)?;
            for &u in nbrs {
                let nd = d + w[u.index()];
                if nd < dist[u.index()] {
                    dist[u.index()] = nd;
                    parent[u.index()] = v;
                    heap.push(Reverse((nd, u.index())));
                }
            }
        }
        Ok(())
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the oracle keeps the pre-rewrite DP's recursion signature"
    )]
    fn reconstruct(
        g: &Graph,
        w: &[u64],
        ts: &[NodeId],
        dist: &[Vec<u64>],
        parent: &[Vec<usize>],
        dp: &[Vec<u64>],
        mask: usize,
        v: usize,
        nodes: &mut NodeSet,
        token: &CancelToken,
    ) -> SolveOutcome<()> {
        let target = dp[mask][v];
        debug_assert!(target < INF);
        if mask.count_ones() == 1 {
            let i = mask.trailing_zeros() as usize;
            let t = ts[i].index();
            add_path(parent, t, v, nodes);
            nodes.insert(ts[i]);
            return Ok(());
        }
        // Find u and a split (sub, rest) with dp[sub][u] + dp[rest][u] - w(u)
        // + dist[u][v] == dp[mask][v].
        for u in 0..g.node_count() {
            token.tick(Stage::ExactDp, 1)?;
            if dist[u][v] >= INF {
                continue;
            }
            let need = match target.checked_sub(dist[u][v]) {
                Some(x) => x,
                None => continue,
            };
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let rest = mask ^ sub;
                if sub < rest
                    && dp[sub][u] < INF
                    && dp[rest][u] < INF
                    && dp[sub][u] + dp[rest][u] - w[u] == need
                {
                    add_path(parent, u, v, nodes);
                    nodes.insert(NodeId::from_index(u));
                    reconstruct(g, w, ts, dist, parent, dp, sub, u, nodes, token)?;
                    reconstruct(g, w, ts, dist, parent, dp, rest, u, nodes, token)?;
                    return Ok(());
                }
                sub = (sub - 1) & mask;
            }
        }
        Err(SolveError::Internal {
            stage: Stage::ExactDp,
            detail: format!("DP value {target} for mask {mask:b} at node {v} has no witness"),
        })
    }

    /// Adds the nodes of the stored shortest path from `src` to `v`
    /// (exclusive of `src`, inclusive of `v` — `src` is added by the caller).
    fn add_path(parent: &[Vec<usize>], src: usize, v: usize, nodes: &mut NodeSet) {
        let mut cur = v;
        while cur != src {
            nodes.insert(NodeId::from_index(cur));
            cur = parent[src][cur];
            debug_assert_ne!(cur, usize::MAX, "path must lead back to the source");
        }
    }
}

/// The three weight sets of the suite.
#[derive(Debug, Clone, Copy)]
enum Weights {
    /// Steiner (Definition 8): every node costs 1.
    Unit,
    /// Pseudo-Steiner (Definition 9): 1 on one side, 0 on the other.
    SideIndicator(Side),
    /// Random 0/1 weights, about a third of them zero.
    ZeroOne,
}

impl Weights {
    fn of(self, bg: &BipartiteGraph, seed: u64) -> Vec<u64> {
        let g = bg.graph();
        match self {
            Weights::Unit => vec![1; g.node_count()],
            Weights::SideIndicator(side) => {
                g.nodes().map(|v| u64::from(bg.side(v) == side)).collect()
            }
            Weights::ZeroOne => {
                let mut r = rng(seed ^ 0x9e37_79b9);
                g.nodes().map(|_| u64::from(!r.gen_bool(0.35))).collect()
            }
        }
    }
}

/// A seeded random bipartite graph with `n1 + n2` nodes and average
/// degree about `degree`, plus `k` random terminals. The terminals come
/// from the component of the highest-degree node (so a tree exists) when
/// that component is large enough, or from `anywhere` in the graph.
fn instance(
    n1: usize,
    n2: usize,
    degree: f64,
    k: usize,
    anywhere: bool,
    seed: u64,
) -> (BipartiteGraph, NodeSet) {
    let p = (degree / n1.max(n2) as f64).min(1.0);
    let bg = random_bipartite(n1, n2, p, seed);
    let g = bg.graph();
    let hub = g.nodes().max_by_key(|&v| g.degree(v)).expect("nonempty");
    let component = component_of(g, &NodeSet::full(g.node_count()), hub);
    let pool = (!anywhere && component.len() >= k).then_some(&component);
    let terminals = random_terminals(g, pool, k, seed.wrapping_mul(31) + 7);
    (bg, terminals)
}

/// Checks one DP answer: a certified tree over all terminals whose node
/// weights sum to the reported cost.
fn certify(g: &Graph, terminals: &NodeSet, w: &[u64], sol: &ExactSolution, what: &str) {
    assert!(
        check_steiner_solution(g, &NodeSet::full(g.node_count()), terminals, &sol.tree),
        "{what}: tree fails its certificate"
    );
    let weight: u64 = sol.tree.nodes.iter().map(|v| w[v.index()]).sum();
    assert_eq!(
        weight, sol.cost,
        "{what}: tree weight differs from its cost"
    );
}

/// Runs the production DP and the oracle on one instance and compares
/// them; returns the common cost (`None` when disconnected).
fn compare(g: &Graph, terminals: &NodeSet, w: &[u64], what: &str) -> Option<u64> {
    let token = CancelToken::unbounded();
    let new = steiner_exact_node_weighted(g, terminals, w);
    let old = match oracle::steiner_exact_matrix(g, terminals, w, &token) {
        Ok(sol) => Some(sol),
        Err(SolveError::Disconnected) => None,
        Err(e) => panic!("{what}: oracle failed: {e}"),
    };
    match (&new, &old) {
        (Some(a), Some(b)) => {
            assert_eq!(a.cost, b.cost, "{what}: DP and matrix oracle disagree");
            certify(g, terminals, w, a, what);
            certify(g, terminals, w, b, what);
        }
        (None, None) => {}
        _ => panic!(
            "{what}: connectivity verdicts differ (DP {:?}, oracle {:?})",
            new.as_ref().map(|s| s.cost),
            old.as_ref().map(|s| s.cost)
        ),
    }
    new.map(|s| s.cost)
}

#[test]
fn dp_matches_the_matrix_oracle_on_random_bipartite_graphs() {
    let mut r = rng(0x5eed_d1ff);
    let mut compared = 0;
    for seed in 0..72u64 {
        let n1 = r.gen_range(3..=50);
        let n2 = r.gen_range(3..=50);
        let degree = f64::from(r.gen_range(15u32..40)) / 10.0;
        let k = r.gen_range(0..=8usize).min(n1 + n2);
        let (bg, terminals) = instance(n1, n2, degree, k, seed % 4 == 3, seed);
        let side = if seed % 2 == 0 { Side::V1 } else { Side::V2 };
        for weights in [
            Weights::Unit,
            Weights::SideIndicator(side),
            Weights::ZeroOne,
        ] {
            let w = weights.of(&bg, seed);
            let what = format!("seed {seed}, {n1}+{n2} nodes, k = {k}, {weights:?}");
            if compare(bg.graph(), &terminals, &w, &what).is_some() {
                compared += 1;
            }
        }
    }
    // Most instances must be connected, or the sweep proves little.
    assert!(compared >= 150, "only {compared} connected comparisons");
}

#[test]
fn dp_matches_iterative_deepening_on_unit_weights() {
    let mut r = rng(0x1d5_0001);
    for seed in 0..48u64 {
        let n1 = r.gen_range(3..=12);
        let n2 = r.gen_range(3..=12);
        let k = r.gen_range(2..=6usize).min(n1 + n2);
        let (bg, terminals) = instance(n1, n2, 2.5, k, seed % 4 == 3, 1000 + seed);
        let g = bg.graph();
        let w = vec![1; g.node_count()];
        let what = format!("seed {seed}, {n1}+{n2} nodes, k = {k}");
        let dp = compare(g, &terminals, &w, &what);
        let ids = steiner_exact_ids(g, &terminals).map(|s| s.cost);
        assert_eq!(dp, ids, "{what}: DP and iterative deepening disagree");
    }
}

#[test]
fn zero_weight_plateaus_keep_back_pointers_acyclic() {
    // Whole regions of weight 0: many equal-distance paths and merges, the
    // case where a back-pointer walk could loop if ties were mishandled.
    for seed in 0..24u64 {
        let (bg, terminals) = instance(30, 30, 3.0, 8, false, 2000 + seed);
        let g = bg.graph();
        let w: Vec<u64> = g.nodes().map(|v| u64::from(v.index() % 5 == 0)).collect();
        compare(g, &terminals, &w, &format!("plateau seed {seed}"));
        let zeros = vec![0; g.node_count()];
        if let Some(cost) = compare(g, &terminals, &zeros, &format!("all-zero seed {seed}")) {
            assert_eq!(cost, 0);
        }
    }
}

#[test]
fn trees_above_the_debug_certificate_cap_are_certified() {
    // The DP's own certificate is skipped above CHECK_STEINER_MAX_NODES;
    // the suite certifies these trees directly.
    for seed in 0..2u64 {
        let n = CHECK_STEINER_MAX_NODES / 2 + 20;
        let (bg, terminals) = instance(n, n, 3.0, 4 + seed as usize, false, 3000 + seed);
        let g = bg.graph();
        assert!(g.node_count() > CHECK_STEINER_MAX_NODES);
        for weights in [Weights::Unit, Weights::ZeroOne] {
            let w = weights.of(&bg, seed);
            let what = format!("large seed {seed}, {weights:?}");
            compare(g, &terminals, &w, &what).expect("terminals share a component");
        }
    }
}

#[test]
fn dp_costs_agree_across_bit_row_representations() {
    // The relax sweeps a node's dense bit row word by word and its CSR
    // row entry by entry. Each graph is solved as built (the default
    // degree threshold), with a dense row for every node and with CSR
    // rows only; graphs up to 140 nodes give rows of one to three words.
    let mut r = rng(0xb17_f00d);
    let mut compared = 0;
    for seed in 0..30u64 {
        let n1 = r.gen_range(20..=70);
        let n2 = r.gen_range(20..=70);
        let degree = f64::from(r.gen_range(15u32..60)) / 10.0;
        let k = r.gen_range(2..=6usize);
        let (bg, terminals) = instance(n1, n2, degree, k, false, 4000 + seed);
        let built = bg.graph();
        let mut dense = built.clone();
        dense.rebuild_bit_rows(0);
        let mut sparse = built.clone();
        sparse.rebuild_bit_rows(usize::MAX);
        let side = if seed % 2 == 0 { Side::V1 } else { Side::V2 };
        for weights in [
            Weights::Unit,
            Weights::SideIndicator(side),
            Weights::ZeroOne,
        ] {
            let w = weights.of(&bg, seed);
            let what = format!("seed {seed}, {n1}+{n2} nodes, k = {k}, {weights:?}");
            let Some(cost) = compare(built, &terminals, &w, &what) else {
                continue;
            };
            compared += 1;
            for (form, g) in [("all-dense", &dense), ("CSR-only", &sparse)] {
                let what = format!("{what}, {form}");
                let sol = steiner_exact_node_weighted(g, &terminals, &w).expect("connected");
                assert_eq!(sol.cost, cost, "{what}: cost differs from the built form");
                certify(g, &terminals, &w, &sol, &what);
                let again = steiner_exact_node_weighted(g, &terminals, &w).expect("connected");
                assert_eq!(again.tree, sol.tree, "{what}: a repeated solve moved");
            }
        }
    }
    assert!(compared >= 80, "only {compared} connected comparisons");
}
