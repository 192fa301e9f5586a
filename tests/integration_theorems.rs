//! Cross-crate validation of the paper's theorems on *generated*
//! workloads — the test-sized companions of the benchmark experiments.

use mcc::prelude::*;
use mcc_gen::{
    random_alpha_acyclic, random_six_two_block_tree, random_terminals, random_x3c,
    random_x3c_planted,
};
use mcc_graph::{CancelToken, NodeId, Workspace};
use mcc_reductions::Theorem2Gadget;
use mcc_steiner::{
    algorithm1, algorithm2, lemma1_ordering, minimum_cover_bruteforce,
    side_minimum_cover_bruteforce, steiner_exact, tree_side_cost,
};

/// Algorithm 1, Steps 1–3: the side's Lemma 1 ordering, then the
/// elimination along it. Returns the tree and its `side` cost; panics
/// when the side's hypergraph is not α-acyclic.
#[expect(
    clippy::expect_used,
    reason = "every caller runs it on an alpha-acyclic side"
)]
fn algorithm1_with_step1(
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    side: Side,
) -> SolveOutcome<(SteinerTree, usize)> {
    let order = lemma1_ordering(bg, side).expect("alpha-acyclic side").order;
    let token = CancelToken::unbounded();
    let tree = algorithm1(&mut Workspace::new(), bg, terminals, side, &order, &token)?;
    let cost = tree_side_cost(bg, &tree, side);
    Ok((tree, cost))
}

/// Theorem 2 end-to-end: the X3C instance is solvable **iff** the gadget
/// admits a Steiner tree with at most `4q + 1` nodes.
#[test]
fn theorem2_reduction_equivalence() {
    // Planted (solvable) instances.
    for seed in 0..4 {
        let inst = random_x3c_planted(2, 3, seed);
        let gadget = Theorem2Gadget::build(inst);
        let sol = steiner_exact(&SteinerInstance::new(
            gadget.graph.graph().clone(),
            gadget.terminals(),
        ))
        .expect("hub connects all terminals");
        assert_eq!(sol.cost as usize, gadget.threshold(), "seed {seed}");
        assert!(gadget.extract_cover(&sol.tree).is_some(), "seed {seed}");
    }
    // Random instances: compare against the brute-force X3C solver. An
    // element covered by no triple leaves its gadget node isolated, so
    // the Steiner instance may be outright infeasible — which still
    // correctly encodes "unsolvable".
    for seed in 0..8 {
        let inst = random_x3c(2, 4, seed);
        let solvable = inst.solve_bruteforce().is_some();
        let gadget = Theorem2Gadget::build(inst);
        let within_threshold = steiner_exact(&SteinerInstance::new(
            gadget.graph.graph().clone(),
            gadget.terminals(),
        ))
        .is_some_and(|sol| sol.cost as usize <= gadget.threshold());
        assert_eq!(
            within_threshold, solvable,
            "seed {seed}: Steiner <= 4q+1 must equal X3C solvability"
        );
    }
}

/// The Theorem 2 gadget is always on Algorithm 1's class, and Algorithm 1
/// solves the *pseudo*-Steiner problem there even though full Steiner is
/// NP-hard — the paper's tractability frontier in one test.
#[test]
fn theorem2_gadget_is_algorithm1_friendly() {
    for seed in 0..4 {
        let gadget = Theorem2Gadget::build(random_x3c_planted(2, 2, seed));
        let terms = gadget.terminals();
        let (_, side_cost) =
            algorithm1_with_step1(&gadget.graph, &terms, Side::V2).expect("hub connects all");
        // All terminals are V2; the V2-cost is forced to 3q + 1.
        assert_eq!(side_cost, 3 * gadget.instance.q + 1, "seed {seed}");
        let bf =
            side_minimum_cover_bruteforce(gadget.graph.graph(), &terms, &gadget.graph.v2_set())
                .unwrap();
        assert_eq!(
            bf.intersection(&gadget.graph.v2_set()).len(),
            side_cost,
            "seed {seed}"
        );
    }
}

/// Theorems 3–4 on generated α-acyclic schemas: Algorithm 1 matches the
/// exhaustive V₂-minimum.
#[test]
fn theorem3_algorithm1_on_generated_schemas() {
    for seed in 0..6 {
        let shape = mcc_gen::join_tree::JoinTreeShape {
            num_edges: 4,
            max_shared: 2,
            max_fresh: 2,
        };
        let (_, bg) = random_alpha_acyclic(shape, seed);
        if bg.graph().node_count() > 18 {
            continue; // keep brute force cheap
        }
        let terminals = random_terminals(bg.graph(), Some(&bg.v1_set()), 2, seed);
        match algorithm1_with_step1(&bg, &terminals, Side::V2) {
            Ok((_, side_cost)) => {
                let v2 = bg.v2_set();
                let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &v2)
                    .expect("algorithm found a tree, so feasible");
                assert_eq!(side_cost, bf.intersection(&v2).len(), "seed {seed}");
            }
            Err(SolveError::Disconnected) => {
                assert!(
                    minimum_cover_bruteforce(bg.graph(), &terminals).is_none(),
                    "seed {seed}"
                );
            }
            Err(e) => panic!("generated schema must be alpha-acyclic: {e} (seed {seed})"),
        }
    }
}

/// Lemma 1: the ordering Algorithm 1 runs along (reversed
/// Tarjan–Yannakakis running-intersection order) satisfies both of
/// Lemma 1's properties, checked literally on connected generated
/// schemas.
#[test]
fn lemma1_ordering_properties_hold() {
    for seed in 0..8 {
        let (_, bg) = random_alpha_acyclic(Default::default(), seed);
        let terminals = random_terminals(bg.graph(), Some(&bg.v1_set()), 2, seed + 77);
        let ordering = lemma1_ordering(&bg, Side::V2).expect("on-class").order;
        match algorithm1_with_step1(&bg, &terminals, Side::V2) {
            Ok(_) => assert!(
                mcc_steiner::verify_lemma1_ordering(&bg, &ordering, Side::V2),
                "seed {seed}: Lemma 1 properties violated"
            ),
            Err(SolveError::Disconnected) => {}
            Err(e) => panic!("generated schema must be on-class: {e}"),
        }
    }
}

/// Theorem 5 + Corollary 5 on generated (6,2)-chordal graphs: Algorithm 2
/// is optimal under many sampled orderings.
#[test]
fn theorem5_algorithm2_under_random_orderings() {
    for seed in 0..6 {
        let shape = mcc_gen::block_tree::BlockTreeShape {
            blocks: 3,
            max_block: 3,
        };
        let bg = random_six_two_block_tree(shape, seed);
        let g = bg.graph();
        if g.node_count() > 18 {
            continue;
        }
        let terminals = random_terminals(g, None, 3, seed * 7 + 1);
        let Some(min) = minimum_cover_bruteforce(g, &terminals) else {
            continue;
        };
        // Sample orderings deterministically: rotations of the id order.
        let n = g.node_count();
        for rot in 0..n.min(6) {
            let order: Vec<NodeId> = (0..n).map(|i| NodeId::from_index((i + rot) % n)).collect();
            let token = CancelToken::unbounded();
            let tree =
                algorithm2(&mut Workspace::new(), g, &terminals, &order, &token).expect("feasible");
            assert_eq!(
                tree.node_cost(),
                min.len(),
                "seed {seed} rotation {rot}: Corollary 5 violated"
            );
        }
    }
}

/// Corollary 4 on generated β-acyclic (interval) schemas: pseudo-Steiner
/// is polynomial **on both sides**.
#[test]
fn corollary4_both_sides_on_interval_schemas() {
    for seed in 0..6 {
        let shape = mcc_gen::interval::IntervalShape {
            nodes: 6,
            edges: 4,
            max_len: 3,
        };
        let (_, bg) = mcc_gen::random_interval_hypergraph(shape, seed);
        let g = bg.graph();
        let terminals = random_terminals(g, None, 2, seed + 100);
        for side in [Side::V1, Side::V2] {
            match algorithm1_with_step1(&bg, &terminals, side) {
                Ok((_, side_cost)) => {
                    let side_set = match side {
                        Side::V1 => bg.v1_set(),
                        Side::V2 => bg.v2_set(),
                    };
                    let bf =
                        side_minimum_cover_bruteforce(g, &terminals, &side_set).expect("feasible");
                    assert_eq!(
                        side_cost,
                        bf.intersection(&side_set).len(),
                        "seed {seed} side {side:?}"
                    );
                }
                Err(SolveError::Disconnected) => {}
                Err(e) => {
                    panic!("interval schemas are beta-acyclic, Corollary 4 applies: {e}")
                }
            }
        }
    }
}

/// The full solver agrees with itself across strategies: on (6,2)-chordal
/// inputs Algorithm 2, the exact solver, and the KMB heuristic bound each
/// other exactly as the theory predicts.
#[test]
fn strategies_are_consistent_on_six_two_graphs() {
    for seed in 0..5 {
        let bg = random_six_two_block_tree(
            mcc_gen::block_tree::BlockTreeShape {
                blocks: 3,
                max_block: 3,
            },
            seed,
        );
        let g = bg.graph();
        let terminals = random_terminals(g, None, 3, seed + 9);
        let solver = Solver::new(bg.clone());
        let auto = solver
            .solve_steiner(&terminals)
            .expect("block trees are connected");
        assert_eq!(auto.strategy, SteinerStrategy::Algorithm2);
        let exact =
            steiner_exact(&SteinerInstance::new(g.clone(), terminals.clone())).expect("connected");
        assert_eq!(auto.cost as u64, exact.cost, "seed {seed}");
        let token = CancelToken::unbounded();
        let kmb = mcc_steiner::steiner_kmb(&mut Workspace::new(), g, &terminals, &token)
            .expect("connected");
        assert!(kmb.node_cost() >= auto.cost);
        assert!(kmb.node_cost() as u64 <= 2 * exact.cost);
    }
}
