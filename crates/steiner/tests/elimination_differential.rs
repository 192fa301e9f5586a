//! Differential suite for the block-local elimination sweeps.
//!
//! Algorithms 1 and 2 delete candidates one at a time and keep a
//! deletion only when the terminals stay connected. The production sweeps
//! settle most candidates from one biconnected-block pass and test the
//! rest inside a single block. The oracles below are the earlier form,
//! kept verbatim in spirit: remove the candidate, run a BFS over the whole
//! graph, undo on failure. Both must return the *same node set* — not
//! merely one of equal cost — for every order, on-class or off-class.
//!
//! Inputs: (6,2) block trees, α-acyclic join-tree schemas under the
//! Lemma 1 order and under shuffled orders, off-class random bipartite
//! graphs swept the way KMB prunes its path union, partial orders, one
//! terminal, disconnected terminals (in the graph, or only within the
//! alive set), and every connected bipartite graph
//! with `|V1|, |V2| ≤ 3` under every terminal subset and both the id and
//! the reversed order.
//!
//! The `V1` route has its own oracle, Corollary 4's textbook reduction:
//! the `V2` algorithm on the side-swapped graph. Algorithm 1 minimizing
//! `V1` on the graph itself, and the solver's `V1` route, must return
//! its trees and costs exactly.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_chordality::classify_bipartite;
use mcc_gen::block_tree::BlockTreeShape;
use mcc_gen::interval::IntervalShape;
use mcc_gen::join_tree::JoinTreeShape;
use mcc_gen::{
    random_alpha_acyclic, random_bipartite, random_interval_hypergraph, random_six_two_block_tree,
    random_terminals, rng,
};
use mcc_graph::builder::graph_from_edges;
use mcc_graph::{
    component_of, shortest_path, terminals_connected, BipartiteGraph, CancelToken, Graph, NodeId,
    NodeSet, Side, Workspace,
};
use mcc_steiner::{
    algorithm1, algorithm2, eliminate_nonredundant_in, lemma1_ordering,
    side_minimum_cover_bruteforce, tree_side_cost, SolveError, SolveOutcome, Solver,
    SteinerStrategy, SteinerTree,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// The whole-graph sweeps, as they stood before the block pass.
mod oracle {
    use super::*;

    /// Algorithm 2's Step 1: remove, test with a whole-graph BFS, undo.
    pub fn eliminate(g: &Graph, terminals: &NodeSet, order: &[NodeId], alive: &mut NodeSet) {
        for &v in order {
            if terminals.contains(v) || !alive.contains(v) {
                continue;
            }
            alive.remove(v);
            if !terminals_connected(g, alive, terminals) {
                alive.insert(v);
            }
        }
    }

    /// Algorithm 2 end to end: the terminals' component, Step 1, the
    /// trim. `None` when the terminals are not connected.
    pub fn algorithm2(g: &Graph, terminals: &NodeSet, order: &[NodeId]) -> Option<NodeSet> {
        let n = g.node_count();
        let Some(t0) = terminals.first() else {
            return Some(NodeSet::new(n));
        };
        let mut alive = component_of(g, &NodeSet::full(n), t0);
        if !terminals.is_subset_of(&alive) {
            return None;
        }
        eliminate(g, terminals, order, &mut alive);
        Some(component_of(g, &alive, t0))
    }

    /// Algorithm 1's Steps 2–3 along `ordering`: remove a `V2` node with
    /// its private neighbours, test with a whole-graph BFS, undo. Returns
    /// the surviving nodes and their `V2` count.
    pub fn algorithm1(
        bg: &BipartiteGraph,
        terminals: &NodeSet,
        ordering: &[NodeId],
    ) -> Result<(NodeSet, usize), SolveError> {
        let g = bg.graph();
        let n = g.node_count();
        let v2_count = |s: &NodeSet| s.iter().filter(|&v| bg.side(v) == Side::V2).count();
        let Some(t0) = terminals.first() else {
            return Ok((NodeSet::new(n), 0));
        };
        if terminals.len() == 1 {
            return Ok((terminals.clone(), v2_count(terminals)));
        }
        let mut alive = component_of(g, &NodeSet::full(n), t0);
        if !terminals.is_subset_of(&alive) {
            return Err(SolveError::Disconnected);
        }
        let mut private = Vec::new();
        for &v2 in ordering {
            if !alive.contains(v2) {
                continue;
            }
            g.private_neighbors_into(v2, &alive, &mut private);
            alive.remove(v2);
            for &u in &private {
                alive.remove(u);
            }
            if !terminals_connected(g, &alive, terminals) {
                alive.insert(v2);
                for &u in &private {
                    alive.insert(u);
                }
            }
        }
        let kept = component_of(g, &alive, t0);
        let cost = v2_count(&kept);
        Ok((kept, cost))
    }
}

/// Algorithm 1 with its Step 1: the tree, its side cost, and the
/// Lemma 1 ordering it ran along.
#[derive(Debug)]
struct Step1Run {
    tree: SteinerTree,
    side_cost: usize,
    ordering: Vec<NodeId>,
}

fn algorithm1_with_step1(
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    side: Side,
) -> SolveOutcome<Step1Run> {
    let ordering = lemma1_ordering(bg, side).expect("alpha-acyclic side").order;
    let token = CancelToken::unbounded();
    let tree = algorithm1(
        &mut Workspace::new(),
        bg,
        terminals,
        side,
        &ordering,
        &token,
    )?;
    let side_cost = tree_side_cost(bg, &tree, side);
    Ok(Step1Run {
        tree,
        side_cost,
        ordering,
    })
}

/// The tree both sweeps must return from the oracle's surviving cover
/// (already trimmed to the first terminal's component): its BFS
/// spanning tree, edge for edge.
fn spanned(g: &Graph, cover: &NodeSet) -> SteinerTree {
    SteinerTree::from_cover(g, cover).expect("the oracle's cover is connected")
}

/// Runs Algorithm 2 both ways and asserts identical trees, node for node
/// and edge for edge.
fn check_algorithm2(ws: &mut Workspace, g: &Graph, terminals: &NodeSet, order: &[NodeId]) {
    let token = CancelToken::unbounded();
    let fast = algorithm2(ws, g, terminals, order, &token).ok();
    let slow = oracle::algorithm2(g, terminals, order).map(|cover| spanned(g, &cover));
    assert_eq!(
        fast,
        slow,
        "Algorithm 2 diverged: terminals {:?}, order {order:?}",
        terminals.to_vec()
    );
}

/// Runs Step 1 both ways from the same alive set and asserts identical
/// survivors.
fn check_step1(
    ws: &mut Workspace,
    g: &Graph,
    terminals: &NodeSet,
    order: &[NodeId],
    alive: &NodeSet,
) {
    let mut fast = alive.clone();
    eliminate_nonredundant_in(ws, g, terminals, order, &mut fast);
    let mut slow = alive.clone();
    oracle::eliminate(g, terminals, order, &mut slow);
    assert_eq!(
        fast,
        slow,
        "Step 1 diverged: terminals {:?}, alive {:?}, order {order:?}",
        terminals.to_vec(),
        alive.to_vec()
    );
}

/// Runs Algorithm 1 both ways along `ordering` and asserts identical
/// trees, node for node and edge for edge, and costs (or the same
/// error).
fn check_algorithm1(
    ws: &mut Workspace,
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    ordering: &[NodeId],
) {
    let token = CancelToken::unbounded();
    let fast = algorithm1(ws, bg, terminals, Side::V2, ordering, &token).map(|tree| {
        let side_cost = tree_side_cost(bg, &tree, Side::V2);
        (tree, side_cost)
    });
    let slow = oracle::algorithm1(bg, terminals, ordering)
        .map(|(cover, side_cost)| (spanned(bg.graph(), &cover), side_cost));
    assert_eq!(
        fast,
        slow,
        "Algorithm 1 diverged: terminals {:?}, ordering {ordering:?}",
        terminals.to_vec()
    );
}

fn id_order(g: &Graph) -> Vec<NodeId> {
    g.nodes().collect()
}

fn shuffled(order: &[NodeId], seed: u64) -> Vec<NodeId> {
    let mut o = order.to_vec();
    o.shuffle(&mut rng(seed));
    o
}

fn v2_nodes(bg: &BipartiteGraph) -> Vec<NodeId> {
    bg.side_nodes(Side::V2).collect()
}

#[test]
fn six_two_block_trees_match_the_whole_graph_sweep() {
    let mut ws = Workspace::new();
    for seed in 0..150u64 {
        let shape = BlockTreeShape {
            blocks: 1 + (seed as usize % 12),
            max_block: 2 + (seed as usize % 3),
        };
        let bg = random_six_two_block_tree(shape, seed);
        let g = bg.graph();
        let n = g.node_count();
        for k in [1, 2, 3, 5, 8] {
            let terminals = random_terminals(g, None, k.min(n), seed * 31 + k as u64);
            let order = id_order(g);
            check_algorithm2(&mut ws, g, &terminals, &order);
            check_algorithm2(&mut ws, g, &terminals, &shuffled(&order, seed + k as u64));
            let reversed: Vec<NodeId> = order.iter().rev().copied().collect();
            check_algorithm2(&mut ws, g, &terminals, &reversed);
        }
    }
}

#[test]
fn alpha_acyclic_schemas_match_under_lemma1_and_shuffled_orders() {
    let mut ws = Workspace::new();
    for seed in 0..150u64 {
        let shape = JoinTreeShape {
            num_edges: 1 + (seed as usize % 14),
            max_shared: 1 + (seed as usize % 3),
            max_fresh: 1 + (seed as usize % 4),
        };
        let (_, bg) = random_alpha_acyclic(shape, seed);
        let g = bg.graph();
        let lemma1 = lemma1_ordering(&bg, Side::V2).expect("join-tree schemas are alpha-acyclic");
        let v1 = bg.v1_set();
        for k in [1, 2, 3, 4, 6] {
            let k = k.min(v1.len());
            let attrs = random_terminals(g, Some(&v1), k, seed * 17 + k as u64);
            let mixed = random_terminals(g, None, k, seed * 19 + k as u64);
            for terminals in [&attrs, &mixed] {
                check_algorithm1(&mut ws, &bg, terminals, &lemma1.order);
                check_algorithm1(&mut ws, &bg, terminals, &shuffled(&lemma1.order, seed));
                check_algorithm1(&mut ws, &bg, terminals, &v2_nodes(&bg));
            }
        }
    }
}

#[test]
fn offclass_graphs_match_as_the_kmb_prune_sweeps_them() {
    let mut ws = Workspace::new();
    for seed in 0..200u64 {
        let mut r = rng(seed);
        let (n1, n2) = (r.gen_range(3..14), r.gen_range(3..14));
        let p = 0.15 + r.gen_range(0..45u32) as f64 / 100.0;
        let bg = random_bipartite(n1, n2, p, seed);
        let g = bg.graph();
        let n = g.node_count();
        let full = NodeSet::full(n);
        let k = r.gen_range(1..=6usize).min(n);
        let terminals = random_terminals(g, None, k, seed + 1);
        // Whole-graph sweeps in id and shuffled orders (connected or not).
        check_algorithm2(&mut ws, g, &terminals, &id_order(g));
        check_algorithm2(&mut ws, g, &terminals, &shuffled(&id_order(g), seed));
        // KMB's prune: Step 1 over the union of shortest paths from the
        // first terminal, in increasing id order.
        let Some(t0) = terminals.first() else {
            continue;
        };
        let mut union = NodeSet::new(n);
        for t in terminals.iter() {
            for v in shortest_path(g, &full, t0, t).unwrap_or_default() {
                union.insert(v);
            }
        }
        let union_order = union.to_vec();
        check_step1(&mut ws, g, &terminals, &union_order, &union);
        // A random alive set: often disconnected, sometimes with dead
        // terminals.
        let alive = NodeSet::from_nodes(n, g.nodes().filter(|_| r.gen_bool(0.7)));
        check_step1(
            &mut ws,
            g,
            &terminals,
            &shuffled(&id_order(g), seed),
            &alive,
        );
    }
}

#[test]
fn nodes_missing_from_a_partial_order_survive_identically() {
    let mut ws = Workspace::new();
    for seed in 0..120u64 {
        let bg = random_six_two_block_tree(
            BlockTreeShape {
                blocks: 2 + (seed as usize % 8),
                max_block: 3,
            },
            seed,
        );
        let g = bg.graph();
        let terminals = random_terminals(g, None, 3, seed);
        let mut r = rng(seed);
        let partial: Vec<NodeId> = shuffled(&id_order(g), seed)
            .into_iter()
            .filter(|_| r.gen_bool(0.6))
            .collect();
        check_algorithm2(&mut ws, g, &terminals, &partial);
        check_step1(
            &mut ws,
            g,
            &terminals,
            &partial,
            &NodeSet::full(g.node_count()),
        );
        // The same on Algorithm 1's side: a partial V2 ordering.
        let partial_v2: Vec<NodeId> = partial
            .iter()
            .copied()
            .filter(|&v| bg.side(v) == Side::V2)
            .collect();
        check_algorithm1(&mut ws, &bg, &terminals, &partial_v2);
    }
    // The unit case from `algorithm2`'s own tests: only node 1 may go.
    let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    let terminals = NodeSet::from_nodes(3, [NodeId(0)]);
    check_algorithm2(&mut ws, &g, &terminals, &[NodeId(1)]);
}

#[test]
fn one_terminal_and_disconnected_terminals() {
    let mut ws = Workspace::new();
    // Two block trees side by side: terminals on both sides are not
    // connected; terminals on one side are.
    for seed in 0..60u64 {
        let a = random_six_two_block_tree(BlockTreeShape::default(), seed);
        let b = random_six_two_block_tree(BlockTreeShape::default(), seed + 1000);
        let (na, nb) = (a.graph().node_count(), b.graph().node_count());
        let mut edges = Vec::new();
        for (g, off) in [(a.graph(), 0), (b.graph(), na)] {
            for v in g.nodes() {
                for &u in g.neighbors(v) {
                    if v < u {
                        edges.push((v.index() + off, u.index() + off));
                    }
                }
            }
        }
        let mut side: Vec<Side> = a.graph().nodes().map(|v| a.side(v)).collect();
        side.extend(b.graph().nodes().map(|v| b.side(v)));
        let bg = BipartiteGraph::new(graph_from_edges(na + nb, &edges), side)
            .expect("disjoint union of bipartite graphs");
        let g = bg.graph();
        let n = g.node_count();
        let mut r = rng(seed);
        let left = NodeId(r.gen_range(0..na) as u32);
        let right = NodeId((na + r.gen_range(0..nb)) as u32);
        let left2 = NodeId(r.gen_range(0..na) as u32);
        for ts in [
            vec![left],
            vec![right],
            vec![left, right],
            vec![left, left2],
            vec![left, left2, right],
        ] {
            let terminals = NodeSet::from_nodes(n, ts);
            let order = shuffled(&id_order(g), seed);
            check_algorithm2(&mut ws, g, &terminals, &order);
            check_step1(&mut ws, g, &terminals, &order, &NodeSet::full(n));
            check_algorithm1(&mut ws, &bg, &terminals, &v2_nodes(&bg));
        }
    }
    // Terminals connected in the graph but not within `alive`: squares
    // 0-1-2-3 and 4-5-6-7 joined by the bridge 2-4, a pendant 8 on 1, and
    // the cut vertex 4 dead. The graph's tree of blocks would call 8 free
    // and find the ports of both squares connected; Step 1 must leave
    // `alive` as it is, as the whole-graph sweep does.
    let g = graph_from_edges(
        9,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
            (1, 8),
        ],
    );
    let terminals = NodeSet::from_nodes(9, [NodeId(0), NodeId(6)]);
    let mut alive = NodeSet::full(9);
    alive.remove(NodeId(4));
    check_step1(&mut ws, &g, &terminals, &id_order(&g), &alive);
}

/// Algorithm 1's order lists no isolated node, so an isolated attribute
/// and an isolated relation survive its sweep beside the terminals'
/// connected cover. Spanning that cover fails, and the tail takes its
/// fallback: the first terminal's component, one BFS more than the same
/// solve without the isolated nodes, and the same tree.
#[test]
fn algorithm1_trims_isolated_nodes_in_its_fallback() {
    use mcc_graph::bipartite::bipartite_from_lists;
    let edges = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)];
    let plain = bipartite_from_lists(&["a", "b", "c", "d"], &["R1", "R2", "R3"], &edges);
    let isolated = bipartite_from_lists(
        &["a", "b", "c", "d", "z"],
        &["R1", "R2", "R3", "R0"],
        &edges,
    );
    let (z, r0) = (NodeId(4), NodeId(8));
    assert_eq!(isolated.graph().degree(z), 0);
    assert_eq!(isolated.graph().degree(r0), 0);
    let mut bfs_runs = Vec::new();
    let mut trees = Vec::new();
    for bg in [&plain, &isolated] {
        let g = bg.graph();
        let ordering = lemma1_ordering(bg, Side::V2)
            .expect("a path is alpha-acyclic")
            .order;
        assert!(
            !ordering.contains(&r0),
            "the ordering lists no isolated relation"
        );
        let a = g.node_by_label("a").unwrap();
        let d = g.node_by_label("d").unwrap();
        let terminals = NodeSet::from_nodes(g.node_count(), [a, d]);
        let mut ws = Workspace::new();
        check_algorithm1(&mut ws, bg, &terminals, &ordering);
        let before = ws.stats.bfs_runs;
        let token = CancelToken::unbounded();
        let tree = algorithm1(&mut ws, bg, &terminals, Side::V2, &ordering, &token).unwrap();
        bfs_runs.push(ws.stats.bfs_runs - before);
        let name = |v: NodeId| g.label(v).to_string();
        let nodes: Vec<String> = tree.nodes.iter().map(name).collect();
        let edges: Vec<(String, String)> = tree
            .edges
            .iter()
            .map(|&(u, v)| (name(u), name(v)))
            .collect();
        trees.push((nodes, edges));
    }
    assert_eq!(
        bfs_runs[1],
        bfs_runs[0] + 1,
        "the fallback's trim is one BFS"
    );
    assert_eq!(trees[0], trees[1], "the isolated nodes are trimmed");
}

#[test]
fn every_small_connected_bipartite_graph_and_terminal_set() {
    let mut ws = Workspace::new();
    let mut graphs = 0;
    for n1 in 1..=3usize {
        for n2 in 1..=3usize {
            let n = n1 + n2;
            let pairs: Vec<(usize, usize)> = (0..n1)
                .flat_map(|a| (0..n2).map(move |b| (a, n1 + b)))
                .collect();
            for mask in 0u32..(1 << pairs.len()) {
                let edges: Vec<(usize, usize)> = pairs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e)
                    .collect();
                let g = graph_from_edges(n, &edges);
                if !mcc_graph::is_connected(&g) {
                    continue;
                }
                graphs += 1;
                let side = (0..n)
                    .map(|v| if v < n1 { Side::V1 } else { Side::V2 })
                    .collect();
                let bg = BipartiteGraph::new(g, side).expect("edges join V1 to V2");
                let g = bg.graph();
                let order = id_order(g);
                let reversed: Vec<NodeId> = order.iter().rev().copied().collect();
                let v2 = v2_nodes(&bg);
                let v2_reversed: Vec<NodeId> = v2.iter().rev().copied().collect();
                for subset in 0u32..(1 << n) {
                    let terminals = NodeSet::from_nodes(
                        n,
                        (0..n)
                            .filter(|&v| subset >> v & 1 == 1)
                            .map(NodeId::from_index),
                    );
                    check_algorithm2(&mut ws, g, &terminals, &order);
                    check_algorithm2(&mut ws, g, &terminals, &reversed);
                    check_algorithm1(&mut ws, &bg, &terminals, &v2);
                    check_algorithm1(&mut ws, &bg, &terminals, &v2_reversed);
                }
            }
        }
    }
    // Connected spanning subgraphs of K(n1,n2) for n1, n2 ≤ 3:
    // 1 + 1 + 1 + 1 + 5 + 19 + 1 + 19 + 205.
    assert_eq!(graphs, 253);
}

/// Checks the `V1` route on `bg` against Corollary 4's reduction: the
/// Lemma 1 ordering of the `V1` side equals the `V2` ordering of the
/// swapped graph (order and join tree), and for every terminal set
/// Algorithm 1 minimizing `V1`, the `V2` algorithm on the swapped graph
/// and `Solver::solve_pseudo(_, V1)` agree in tree and cost. On graphs of
/// at most `BRUTE_MAX_NODES` nodes the cost is also the brute-force
/// `V1` minimum. Returns how many solves succeeded.
fn check_v1_route(bg: &BipartiteGraph, terminal_sets: &[NodeSet]) -> usize {
    const BRUTE_MAX_NODES: usize = 14;
    let swapped = bg.swap_sides();
    let l1 = lemma1_ordering(bg, Side::V1);
    assert_eq!(l1, lemma1_ordering(&swapped, Side::V2));
    assert!(l1.is_some(), "H² must be alpha-acyclic on these inputs");
    let solver = Solver::new(bg.clone());
    let v1 = bg.v1_set();
    let mut solved = 0;
    for terminals in terminal_sets {
        let oracle = algorithm1_with_step1(&swapped, terminals, Side::V2);
        let direct = algorithm1_with_step1(bg, terminals, Side::V1);
        let routed = solver.solve_pseudo(terminals, Side::V1);
        match (&oracle, &direct) {
            (Ok(want), Ok(have)) => {
                assert_eq!(want.tree, have.tree, "terminals {:?}", terminals.to_vec());
                assert_eq!(want.side_cost, have.side_cost);
                assert_eq!(want.ordering, have.ordering);
                let sol = routed.expect("the V1 route solves what Algorithm 1 solves");
                assert_eq!(sol.strategy, SteinerStrategy::Algorithm1);
                assert_eq!(sol.tree, have.tree);
                assert_eq!(sol.cost, have.side_cost);
                if bg.graph().node_count() <= BRUTE_MAX_NODES {
                    let bf = side_minimum_cover_bruteforce(bg.graph(), terminals, &v1)
                        .expect("Algorithm 1 solved it, so it is feasible");
                    assert_eq!(have.side_cost, bf.intersection(&v1).len());
                }
                solved += 1;
            }
            (Err(SolveError::Disconnected), Err(SolveError::Disconnected)) => {
                assert_eq!(routed.unwrap_err(), SolveError::Disconnected);
            }
            (want, have) => panic!("V1 route diverged: oracle {want:?}, direct {have:?}"),
        }
    }
    solved
}

fn terminal_sets(bg: &BipartiteGraph, seed: u64) -> Vec<NodeSet> {
    let g = bg.graph();
    let n = g.node_count();
    let v1 = bg.v1_set();
    let mut sets = Vec::new();
    for k in [1, 2, 3, 5] {
        sets.push(random_terminals(g, None, k.min(n), seed * 23 + k as u64));
        sets.push(random_terminals(
            g,
            Some(&v1),
            k.min(v1.len()),
            seed * 29 + k as u64,
        ));
    }
    sets
}

#[test]
fn v1_route_matches_the_swapped_graph_on_six_two_block_trees() {
    let mut solved = 0;
    for seed in 0..80u64 {
        let shape = BlockTreeShape {
            blocks: 1 + (seed as usize % 8),
            max_block: 2 + (seed as usize % 3),
        };
        let bg = random_six_two_block_tree(shape, seed);
        solved += check_v1_route(&bg, &terminal_sets(&bg, seed));
    }
    assert!(solved > 400, "only {solved} solves succeeded");
}

#[test]
fn v1_route_matches_the_swapped_graph_on_six_one_graphs() {
    let mut solved = 0;
    for seed in 0..80u64 {
        let shape = IntervalShape {
            nodes: 4 + (seed as usize % 7),
            edges: 2 + (seed as usize % 5),
            max_len: 2 + (seed as usize % 3),
        };
        let (_, bg) = random_interval_hypergraph(shape, seed);
        assert!(classify_bipartite(&bg).six_one);
        solved += check_v1_route(&bg, &terminal_sets(&bg, seed));
    }
    assert!(solved > 200, "only {solved} solves succeeded");
}

#[test]
fn v1_route_matches_the_swapped_graph_where_h2_is_alpha_acyclic() {
    let mut solved = 0;
    let mut graphs = 0;
    for seed in 0..300u64 {
        let mut r = rng(seed);
        // Join-tree schemas with the sides swapped have an α-acyclic H²;
        // random graphs are kept when theirs is.
        let bg = if seed % 2 == 0 {
            let shape = JoinTreeShape {
                num_edges: 1 + (seed as usize % 10),
                max_shared: 1 + (seed as usize % 3),
                max_fresh: 1 + (seed as usize % 3),
            };
            random_alpha_acyclic(shape, seed).1.swap_sides()
        } else {
            let (n1, n2) = (r.gen_range(2..8), r.gen_range(2..8));
            random_bipartite(n1, n2, 0.2 + r.gen_range(0..40u32) as f64 / 100.0, seed)
        };
        if !classify_bipartite(&bg).h2_alpha_acyclic() {
            continue;
        }
        graphs += 1;
        solved += check_v1_route(&bg, &terminal_sets(&bg, seed));
    }
    assert!(graphs > 200, "only {graphs} graphs had an alpha-acyclic H²");
    assert!(solved > 800, "only {solved} solves succeeded");
}
