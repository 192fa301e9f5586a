//! Allocation regression tests for Algorithm 2's elimination loop, the
//! solver's warm Algorithm 1 (both sides) and Algorithm 2 routes, the Theorem 1
//! recognizers and the exact DP.
//!
//! The whole point of the workspace refactor is that Step 1 of
//! Algorithm 2 — one block pass, then `O(|V|)` candidates settled by it
//! or tested inside one block, against a shrinking alive mask — touches
//! the heap **zero** times once the workspace has warmed up to the graph
//! size. This test installs a
//! counting global allocator and pins that down on a (6,2)-chordal
//! instance: one warm-up pass, then a full measured pass that must report
//! exactly zero allocations.
//!
//! The counter is per thread: the test harness runs the tests of this
//! binary on parallel threads of one process, and a process-wide count
//! would charge each measured pass with whatever the other tests (and the
//! harness itself) allocate meanwhile. Every routine measured here runs
//! entirely on the calling thread.
//!
//! (The library forbids `unsafe`, but the allocator shim below needs it;
//! integration tests compile as their own crates, so the `forbid` does
//! not reach here, and the workspace-level `deny` is lowered below.)

#![allow(
    unsafe_code,
    reason = "a counting `GlobalAlloc` cannot be written without `unsafe impl`"
)]

use mcc_graph::{builder::graph_from_edges, CancelToken, NodeId, NodeSet, Workspace};
use mcc_steiner::{algorithm2, eliminate_nonredundant_in};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// without a destructor, so touching it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread is being torn
    // down, after its locals may be gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Counts every allocation and reallocation on the calling thread,
/// delegating to the system allocator. Deallocations are not counted
/// (freeing is allowed — though the loop under test does not free either).
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A chain of `blocks` squares (C4s) glued at articulation nodes:
/// `a_i — b_i — a_{i+1}` and `a_i — c_i — a_{i+1}`. Every block is a C4
/// and every cycle lives inside one block, so the graph is
/// (6,2)-chordal (no cycle of length ≥ 6 exists at all) and Algorithm 2
/// is exact on it (Theorem 5).
fn c4_chain(blocks: usize) -> (mcc_graph::Graph, NodeSet) {
    // Node layout: a_0..a_blocks at indices 0..=blocks, then for block i
    // the pair (b_i, c_i) at blocks + 1 + 2i and blocks + 2 + 2i.
    let n = blocks + 1 + 2 * blocks;
    let mut edges = Vec::new();
    for i in 0..blocks {
        let (a, a_next) = (i, i + 1);
        let b = blocks + 1 + 2 * i;
        let c = b + 1;
        edges.extend([(a, b), (b, a_next), (a, c), (c, a_next)]);
    }
    let g = graph_from_edges(n, &edges);
    let terminals = NodeSet::from_nodes(n, [NodeId(0), NodeId(blocks as u32)]);
    (g, terminals)
}

/// Copies `src` into `dst` member-by-member without touching the heap
/// (both sets already have the right capacity).
fn refill(dst: &mut NodeSet, src: &NodeSet) {
    dst.clear();
    for v in src.iter() {
        dst.insert(v);
    }
}

#[test]
fn elimination_loop_allocates_nothing_after_warmup() {
    let blocks = 8;
    let (g, terminals) = c4_chain(blocks);
    let n = g.node_count();
    let order: Vec<NodeId> = g.nodes().collect();
    let full = NodeSet::full(n);
    let mut alive = full.clone();
    let mut ws = Workspace::new();

    // Warm-up: grows the visited array, queue, and pooled buffers to this
    // graph's size and runs the full elimination once.
    eliminate_nonredundant_in(&mut ws, &g, &terminals, &order, &mut alive);
    // On a (6,2)-chordal graph the surviving nonredundant cover is minimum
    // (Lemma 5): one a-node path plus one midpoint per block.
    assert_eq!(
        alive.len(),
        blocks + 1 + blocks,
        "warm-up must produce the minimum cover"
    );

    // Measured pass: the complete elimination, from the full alive mask,
    // through the warm workspace.
    refill(&mut alive, &full);
    let before = allocation_count();
    eliminate_nonredundant_in(&mut ws, &g, &terminals, &order, &mut alive);
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "elimination loop must not allocate after warm-up ({} allocations observed)",
        after - before
    );
    assert_eq!(alive.len(), blocks + 1 + blocks);

    // Algorithm 2 itself agrees with the loop-plus-trim decomposition.
    let token = CancelToken::unbounded();
    let tree = algorithm2(&mut ws, &g, &terminals, &order, &token).expect("terminals connected");
    assert_eq!(tree.node_cost(), alive.len());
}

/// `Graph::adjacent_to_set_into` must be allocation-free once the output
/// set has the right universe: dense rows are ORed word-parallel into the
/// set's own storage, sparse rows scatter through `insert`, and neither
/// path touches the heap.
#[test]
fn adjacent_to_set_into_allocates_nothing_after_warmup() {
    let (g, terminals) = c4_chain(8);
    let n = g.node_count();
    let mut out = NodeSet::new(n);

    // Warm-up fits `out` to the graph's universe (a no-op here, but the
    // measured pass must not depend on that).
    g.adjacent_to_set_into(&terminals, &mut out);
    let expected = g.adjacent_to_set(&terminals);
    assert_eq!(out, expected);

    let before = allocation_count();
    g.adjacent_to_set_into(&terminals, &mut out);
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "adjacent_to_set_into must not allocate after warm-up ({} allocations observed)",
        after - before
    );
    assert_eq!(out, expected);
}

/// The (6,2) sparse-six-cycle scan sizes all its scratch up front — the
/// partner lists, one mark per node and seven word rows — so on a
/// negative instance (no witness to return) it allocates as many times
/// on `c4_chain(8)` as on `c4_chain(64)`. A buffer allocated per node,
/// or one that grows inside the scan, makes the count move with `n`.
/// Both orientations are measured: with the articulation nodes as `V1`
/// no node has two partners, and with the midpoints as `V1` every node
/// does, so the triple loop runs.
#[test]
fn sparse_six_cycle_scan_allocation_count_is_independent_of_n() {
    use mcc_chordality::find_sparse_six_cycle;
    use mcc_graph::BipartiteGraph;

    let measure = |blocks: usize, swap: bool| -> u64 {
        let (g, _) = c4_chain(blocks);
        let bg = BipartiteGraph::from_graph(g).expect("C4 chains are bipartite");
        let bg = if swap { bg.swap_sides() } else { bg };
        let before = allocation_count();
        let witness = find_sparse_six_cycle(&bg);
        let allocs = allocation_count() - before;
        assert_eq!(witness, None, "C4 chains have no 6-cycle");
        allocs
    };

    for swap in [false, true] {
        let (small, large) = (measure(8, swap), measure(64, swap));
        assert_eq!(
            small, large,
            "sparse-six-cycle scan allocations moved with n ({small} at 8 blocks, {large} at 64, sides swapped: {swap})"
        );
    }
}

/// `classify_bipartite` on a (6,2)-chordal block tree — the in-class
/// path every served schema takes: the forest test, Golumbic–Goss and
/// the six-cycle scan — allocates as many times on the 1,224-node tree
/// as on one about four times larger. Each recognizer sizes its scratch
/// up front, so a per-node allocation, or a buffer that grows inside a
/// scan, makes the count move with `n`.
#[test]
fn classification_allocation_count_is_independent_of_n() {
    use mcc_chordality::classify_bipartite;
    use mcc_gen::block_tree::BlockTreeShape;
    use mcc_gen::random_six_two_block_tree;

    let measure = |blocks: usize| -> (u64, usize) {
        let shape = BlockTreeShape {
            blocks,
            max_block: 4,
        };
        let tree = random_six_two_block_tree(shape, 7);
        let before = allocation_count();
        let class = classify_bipartite(&tree);
        let allocs = allocation_count() - before;
        assert!(class.six_two, "block trees are (6,2)-chordal");
        (allocs, tree.graph().node_count())
    };

    // Warm-up: the first span on this thread sets up its telemetry shard.
    let _ = measure(4);

    let (small, n_small) = measure(256);
    assert_eq!(n_small, 1224);
    let (large, n_large) = measure(1024);
    assert!(n_large >= 4 * n_small - 100, "{n_large} nodes");
    assert_eq!(
        small, large,
        "classification allocations moved with n ({small} at {n_small} nodes, {large} at {n_large})"
    );
}

/// Off the class, `classify_bipartite` runs every recognizer, the four
/// Vᵢ tests included: two side projections, MCS and the PEO check on
/// each, and two conformity scans. On α-acyclic schemas that are not
/// (6,1), the `V2` PEO check and conformity scan find no violation to
/// stop them early, and the count is the same at about 240 nodes as at
/// about 480. On a cyclic random graph of 300 nodes it stays below the
/// node count. A buffer allocated per node or per relation, or one that
/// grows inside a scan, fails this test.
#[test]
fn offclass_classification_allocation_count_is_independent_of_n() {
    use mcc_chordality::classify_bipartite;
    use mcc_gen::join_tree::JoinTreeShape;
    use mcc_gen::{random_alpha_acyclic, random_bipartite};
    use mcc_graph::BipartiteGraph;

    let measure = |bg: &BipartiteGraph| -> u64 {
        let before = allocation_count();
        let class = classify_bipartite(bg);
        let allocs = allocation_count() - before;
        assert!(!class.six_one, "the graph must be off-class");
        allocs
    };
    let alpha = |num_edges: usize| -> BipartiteGraph {
        let shape = JoinTreeShape {
            num_edges,
            max_shared: 4,
            max_fresh: 2,
        };
        let (_, bg) = random_alpha_acyclic(shape, 0);
        assert!(classify_bipartite(&bg).h1_alpha_acyclic());
        bg
    };

    let (small, large) = (alpha(120), alpha(240));
    let (n_small, n_large) = (small.graph().node_count(), large.graph().node_count());
    assert!(n_large >= 2 * n_small - 20, "{n_small} and {n_large} nodes");
    let (small, large) = (measure(&small), measure(&large));
    assert_eq!(
        small, large,
        "off-class classification allocations moved with n ({small} at {n_small} nodes, {large} at {n_large})"
    );

    let cyclic = random_bipartite(150, 150, 0.03, 3);
    let allocs = measure(&cyclic);
    assert!(
        allocs < cyclic.graph().node_count() as u64,
        "off-class classification allocated {allocs} times on 300 nodes"
    );
}

/// The tracing span in `algorithm2` must not change the
/// function's allocation profile: recording is `Cell`/atomic arithmetic
/// only. The budgeted route allocates for its *result tree* (that is
/// inherent to returning an owned `SteinerTree`), so the assertion is
/// differential — a warm solve with telemetry recording ON allocates
/// exactly as much as the same solve with the kill-switch OFF.
#[test]
fn telemetry_spans_add_zero_allocations_on_the_budgeted_route() {
    use mcc_graph::SolveBudget;

    let (g, terminals) = c4_chain(8);
    let order: Vec<NodeId> = g.nodes().collect();
    let budget = SolveBudget::unbounded();
    let mut ws = Workspace::new();

    let measure = |ws: &mut Workspace| {
        let token = budget.start();
        let before = allocation_count();
        let tree = algorithm2(ws, &g, &terminals, &order, &token).expect("terminals connected");
        let allocs = allocation_count() - before;
        (allocs, tree.node_cost())
    };

    // Warm-up (grows workspace buffers, initializes the obs clock epoch
    // and this thread's counter home shard).
    mcc_obs::set_enabled(true);
    let _ = measure(&mut ws);

    let (on_allocs, on_cost) = measure(&mut ws);
    mcc_obs::set_enabled(false);
    let (off_allocs, off_cost) = measure(&mut ws);
    mcc_obs::set_enabled(true);

    assert_eq!(on_cost, off_cost, "kill-switch must not affect answers");
    assert_eq!(
        on_allocs, off_allocs,
        "recording spans must not allocate: {on_allocs} (on) vs {off_allocs} (off)"
    );
}

/// One exact DP solve allocates a fixed number of times, whatever the
/// terminal count, the graph size or the weights: two flat tables, the
/// relaxation's four bucket buffers, one read-back stack and the result,
/// never a row or a bucket per mask. Unit weights and a side indicator
/// (zero on the articulation nodes, so relaxations also push onto the
/// level being settled) are both measured. A return of
/// per-mask `Vec` rows (or of per-node matrices) makes the count grow
/// with `k` (or `n`) and fails this test.
///
/// Debug builds also run the DP's own solution certificate, whose graph
/// rebuild allocates in proportion to the tree; the same certificate is
/// measured on the returned tree and subtracted, so the pin holds in both
/// build profiles.
#[test]
fn exact_dp_allocation_count_is_independent_of_k_and_n() {
    use mcc_graph::{CancelToken, SolveBudget};
    use mcc_steiner::{
        check_steiner_solution, steiner_exact_node_weighted_budgeted, CHECK_STEINER_MAX_NODES,
    };

    let budget = SolveBudget::unbounded();
    let measure = |blocks: usize, k: usize, side: bool| -> u64 {
        let (g, _) = c4_chain(blocks);
        let n = g.node_count();
        // k articulation nodes a_i, spread along the chain.
        let terminals =
            NodeSet::from_nodes(n, (0..k).map(|i| NodeId((i * blocks / (k - 1)) as u32)));
        assert_eq!(terminals.len(), k);
        // The side indicator weighs the block midpoints b_i, c_i only.
        let w: Vec<u64> = (0..n).map(|v| u64::from(!side || v > blocks)).collect();
        let token = CancelToken::unbounded();
        let before = allocation_count();
        let sol = steiner_exact_node_weighted_budgeted(&g, &terminals, &w, &budget, &token)
            .expect("terminals connected");
        let mut allocs = allocation_count() - before;
        // On a C4 chain the optimum is the a-path between the outermost
        // terminals plus one midpoint per block.
        let a_path = if side { 0 } else { blocks + 1 };
        assert_eq!(sol.cost as usize, a_path + blocks);
        if cfg!(debug_assertions) && n <= CHECK_STEINER_MAX_NODES {
            let before = allocation_count();
            assert!(check_steiner_solution(
                &g,
                &NodeSet::full(n),
                &terminals,
                &sol.tree
            ));
            allocs -= allocation_count() - before;
        }
        allocs
    };

    // Warm-up: the first span on this thread sets up its telemetry shard.
    let _ = measure(4, 2, false);

    let baseline = measure(4, 2, false);
    for side in [false, true] {
        for (blocks, k) in [(4, 2), (4, 4), (10, 2), (10, 7), (40, 3), (40, 8)] {
            assert_eq!(
                measure(blocks, k, side),
                baseline,
                "exact DP allocation count moved ({blocks} blocks, k = {k}, side indicator: {side})"
            );
        }
    }
}

/// A warm `Solver::solve_pseudo` on Algorithm 1's route allocates
/// exactly what building its result tree allocates, whatever the schema
/// size and whichever side it minimizes: never a copy of the cached
/// Lemma 1 ordering, a side set or a side-swapped copy of the graph. The
/// inputs are α-acyclic schemas for `V2` and (6,2) block trees for `V1`.
/// Each solver is warmed by one solve first (the Lemma 1 route is built
/// on first use, and the workspace grows to the schema).
///
/// Debug builds also run the route's tree certificate, whose graph
/// rebuild allocates in proportion to the tree; the same certificate is
/// measured on the returned tree and subtracted, so the pin holds in both
/// build profiles.
#[test]
fn warm_solve_pseudo_allocates_only_its_result() {
    use mcc_gen::block_tree::BlockTreeShape;
    use mcc_gen::join_tree::JoinTreeShape;
    use mcc_gen::{random_alpha_acyclic, random_six_two_block_tree, random_terminals};
    use mcc_graph::{BipartiteGraph, Side};
    use mcc_steiner::{
        check_steiner_solution, Solver, SteinerStrategy, SteinerTree, CHECK_STEINER_MAX_NODES,
    };

    let check = |bg: BipartiteGraph, side: Side, size: usize| {
        let v1 = bg.v1_set();
        let terminals = random_terminals(bg.graph(), Some(&v1), 3, 5);
        let solver = Solver::new(bg);
        let warm = solver.solve_pseudo(&terminals, side).expect("connected");
        assert_eq!(warm.strategy, SteinerStrategy::Algorithm1);

        let before = allocation_count();
        let sol = solver.solve_pseudo(&terminals, side).expect("connected");
        let mut allocs = allocation_count() - before;
        assert_eq!(sol.tree, warm.tree);
        let g = solver.graph().graph();
        if cfg!(debug_assertions) && g.node_count() <= CHECK_STEINER_MAX_NODES {
            let before = allocation_count();
            assert!(check_steiner_solution(
                g,
                &sol.tree.nodes,
                &terminals,
                &sol.tree
            ));
            allocs -= allocation_count() - before;
        }
        let before = allocation_count();
        let result = SteinerTree::from_cover(g, &sol.tree.nodes);
        let result_allocs = allocation_count() - before;
        assert_eq!(result.as_ref(), Some(&sol.tree));
        assert_eq!(
            allocs, result_allocs,
            "warm solve_pseudo({side:?}) allocated beyond its result tree (size {size})"
        );
    };

    for num_edges in [4, 8, 20, 60, 150] {
        let shape = JoinTreeShape {
            num_edges,
            ..JoinTreeShape::default()
        };
        let (_, bg) = random_alpha_acyclic(shape, 3);
        check(bg, Side::V2, num_edges);
    }
    for blocks in [2, 6, 20, 80] {
        let shape = BlockTreeShape {
            blocks,
            ..BlockTreeShape::default()
        };
        check(random_six_two_block_tree(shape, 3), Side::V1, blocks);
    }
}

/// A warm `Solver::solve_steiner` on Algorithm 2's route allocates
/// exactly what building its result tree allocates, whatever the schema
/// size: the cached elimination order is borrowed, and the elimination
/// loop runs on the solver's warm workspace. Each solver is warmed by one
/// solve first (the workspace grows to the schema).
///
/// Debug builds also run the route's tree certificate, whose graph
/// rebuild allocates in proportion to the tree; the same certificate is
/// measured on the returned tree and subtracted, so the pin holds in both
/// build profiles.
#[test]
fn warm_solve_steiner_allocates_only_its_result() {
    use mcc_gen::block_tree::{random_six_two_block_tree, BlockTreeShape};
    use mcc_gen::random_terminals;
    use mcc_steiner::{
        check_steiner_solution, Solver, SteinerStrategy, SteinerTree, CHECK_STEINER_MAX_NODES,
    };

    for blocks in [2, 6, 20, 60, 150] {
        let shape = BlockTreeShape {
            blocks,
            ..BlockTreeShape::default()
        };
        let bg = random_six_two_block_tree(shape, 3);
        let terminals = random_terminals(bg.graph(), None, 4, 5);
        let solver = Solver::new(bg);
        let warm = solver.solve_steiner(&terminals).expect("connected");
        assert_eq!(warm.strategy, SteinerStrategy::Algorithm2);

        let before = allocation_count();
        let sol = solver.solve_steiner(&terminals).expect("connected");
        let mut allocs = allocation_count() - before;
        assert_eq!(sol.tree, warm.tree);
        let g = solver.graph().graph();
        if cfg!(debug_assertions) && g.node_count() <= CHECK_STEINER_MAX_NODES {
            let before = allocation_count();
            assert!(check_steiner_solution(
                g,
                &sol.tree.nodes,
                &terminals,
                &sol.tree
            ));
            allocs -= allocation_count() - before;
        }
        let before = allocation_count();
        let result = SteinerTree::from_cover(g, &sol.tree.nodes);
        let result_allocs = allocation_count() - before;
        assert_eq!(result.as_ref(), Some(&sol.tree));
        assert_eq!(
            allocs, result_allocs,
            "warm solve_steiner allocated beyond its result tree ({blocks} blocks)"
        );
    }
}

/// One KMB solve allocates a fixed number of times, whatever the
/// terminal count or the graph size: the two flat `k·n` closure
/// buffers, one queue, the Prim arrays and the result. The union and
/// the pruning run on the caller's workspace, which is sized to the
/// graph before the measured call, as `Solver` sizes its own. A closure
/// row or a path allocated per terminal, or a buffer that grows inside a
/// loop, makes the count move with `k` or `n` and fails this test.
///
/// The result tree's own allocations are measured by rebuilding it with
/// `SteinerTree::from_cover` and subtracted. Debug builds also run the
/// pruning's solution certificate, which is measured on the returned
/// tree and subtracted too, so the pin holds in both build profiles.
#[test]
fn kmb_allocation_count_is_independent_of_k_and_n() {
    use mcc_steiner::{check_steiner_solution, steiner_kmb, SteinerTree, CHECK_STEINER_MAX_NODES};

    let measure = |blocks: usize, k: usize| -> u64 {
        let (g, _) = c4_chain(blocks);
        let n = g.node_count();
        // k articulation nodes a_i, spread along the chain.
        let terminals =
            NodeSet::from_nodes(n, (0..k).map(|i| NodeId((i * blocks / (k - 1)) as u32)));
        assert_eq!(terminals.len(), k);
        let token = CancelToken::unbounded();
        let mut ws = Workspace::with_capacity(n);
        let before = allocation_count();
        let tree = steiner_kmb(&mut ws, &g, &terminals, &token).expect("terminals connected");
        let mut allocs = allocation_count() - before;
        // The a-path between the outermost terminals plus one midpoint
        // per block: the optimum, which the pruning reaches here.
        assert_eq!(tree.node_cost(), 2 * blocks + 1);
        if cfg!(debug_assertions) && n <= CHECK_STEINER_MAX_NODES {
            let before = allocation_count();
            assert!(check_steiner_solution(&g, &tree.nodes, &terminals, &tree));
            allocs -= allocation_count() - before;
        }
        let before = allocation_count();
        let result = SteinerTree::from_cover(&g, &tree.nodes);
        allocs -= allocation_count() - before;
        assert_eq!(result.as_ref(), Some(&tree));
        allocs
    };

    // Warm-up: the first span on this thread sets up its telemetry shard.
    let _ = measure(16, 2);

    let baseline = measure(16, 2);
    for (blocks, k) in [
        (16, 5),
        (16, 10),
        (16, 16),
        (60, 2),
        (60, 16),
        (150, 5),
        (150, 16),
    ] {
        assert_eq!(
            measure(blocks, k),
            baseline,
            "KMB allocation count moved with size ({blocks} blocks, k = {k})"
        );
    }
}
