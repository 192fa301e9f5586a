//! Generator → recognizer → solver → certificate pipelines: the glue the
//! benchmark harness relies on, exercised at test scale.

#![allow(
    clippy::disallowed_methods,
    reason = "the scale checks time themselves against the wall clock"
)]

use mcc::prelude::*;
use mcc_chordality::classify_bipartite;
use mcc_gen::{
    random_alpha_acyclic, random_bipartite, random_interval_hypergraph, random_six_two_block_tree,
    random_terminals, random_tree_bipartite,
};
use mcc_hypergraph::{h1_of_bipartite, AcyclicityDegree};
use mcc_steiner::is_steiner_tree_for;

/// Every generator lands in its advertised class, per the recognizers.
#[test]
fn generators_land_on_their_classes() {
    for seed in 0..4 {
        let tree = random_tree_bipartite(12, seed);
        assert!(classify_bipartite(&tree).four_one, "tree seed {seed}");

        let bt = random_six_two_block_tree(Default::default(), seed);
        assert!(classify_bipartite(&bt).six_two, "block seed {seed}");

        let (_, iv) = random_interval_hypergraph(Default::default(), seed);
        assert!(classify_bipartite(&iv).six_one, "interval seed {seed}");

        let (_, jt) = random_alpha_acyclic(Default::default(), seed);
        assert!(
            classify_bipartite(&jt).h1_alpha_acyclic(),
            "join-tree seed {seed}"
        );
    }
}

/// The containment chain of Corollary 2 shows up on generated instances:
/// each stronger generator's output also satisfies the weaker classes.
#[test]
fn corollary2_containments_on_generated_instances() {
    for seed in 0..4 {
        for bg in [
            random_tree_bipartite(10, seed),
            random_six_two_block_tree(Default::default(), seed),
            random_interval_hypergraph(Default::default(), seed).1,
        ] {
            let c = classify_bipartite(&bg);
            if c.four_one {
                assert!(c.six_two);
            }
            if c.six_two {
                assert!(c.six_one);
            }
            if c.six_one {
                assert!(c.h1_alpha_acyclic() && c.h2_alpha_acyclic());
            }
        }
    }
}

/// Solver pipeline on every family: solve, then certify the tree
/// independently.
#[test]
fn solve_and_certify_across_families() {
    for seed in 0..4 {
        let instances: Vec<BipartiteGraph> = vec![
            random_tree_bipartite(14, seed),
            random_six_two_block_tree(Default::default(), seed),
            random_interval_hypergraph(Default::default(), seed).1,
            random_alpha_acyclic(Default::default(), seed).1,
        ];
        for (i, bg) in instances.into_iter().enumerate() {
            let g = bg.graph().clone();
            let terminals = random_terminals(&g, None, 3, seed * 31 + i as u64);
            let solver = Solver::new(bg);
            match solver.solve_steiner(&terminals) {
                Ok(sol) => {
                    assert!(
                        is_steiner_tree_for(&g, &sol.tree, &terminals),
                        "family {i} seed {seed}"
                    );
                    assert_eq!(sol.cost, sol.tree.node_cost());
                }
                Err(mcc::SolveError::Disconnected) => {
                    // Fine: terminals may span components on sparse inputs.
                }
                Err(e) => panic!("unexpected solver error: {e}"),
            }
        }
    }
}

/// The hypergraph view of a generated bipartite graph classifies
/// consistently with the graph view (Theorem 1, at pipeline scale).
#[test]
fn theorem1_holds_on_generated_workloads() {
    for seed in 0..4 {
        // Dense-ish random bipartite graphs, cleaned of isolated V2 nodes.
        let bg = random_bipartite(5, 5, 0.45, seed);
        let cleaned = mcc_chordality::chordal_bipartite::drop_isolated_v2(&bg);
        let c = classify_bipartite(&cleaned);
        let (h1, _, _) = h1_of_bipartite(&cleaned).expect("cleaned");
        let degree = AcyclicityDegree::of(&h1);
        assert_eq!(c.four_one, degree >= AcyclicityDegree::Berge, "seed {seed}");
        assert_eq!(c.six_two, degree >= AcyclicityDegree::Gamma, "seed {seed}");
        assert_eq!(c.six_one, degree >= AcyclicityDegree::Beta, "seed {seed}");
        assert_eq!(
            c.h1_alpha_acyclic(),
            degree >= AcyclicityDegree::Alpha,
            "seed {seed}"
        );
    }
}

/// Schema round trip: hypergraph → relational schema → bipartite graph →
/// hypergraph preserves structure.
#[test]
fn schema_roundtrip_through_every_representation() {
    for seed in 0..4 {
        let (h, _) = random_alpha_acyclic(Default::default(), seed);
        let schema = RelationalSchema::from_hypergraph("generated", &h);
        let h2 = schema.to_hypergraph().expect("valid by construction");
        assert!(
            mcc_hypergraph::dual::index_identical(&h, &h2),
            "seed {seed}"
        );
        let bg = schema.to_bipartite().expect("valid");
        let (h3, _, _) = h1_of_bipartite(&bg).expect("no isolated relations");
        assert!(
            mcc_hypergraph::dual::index_identical(&h, &h3),
            "seed {seed}"
        );
    }
}

/// Scale check: Algorithms 1 and 2 handle thousand-node instances in
/// well under a second each (Theorems 4 and 5 are about polynomial
/// bounds; this pins the constant factors at a usable order). Run with
/// `cargo test --workspace -- --ignored`.
#[test]
#[ignore = "scale test; run explicitly"]
fn algorithms_scale_to_thousands_of_nodes() {
    use std::time::Instant;

    // Algorithm 2 on a ~2000-node block tree.
    let bg = random_six_two_block_tree(
        mcc_gen::block_tree::BlockTreeShape {
            blocks: 400,
            max_block: 4,
        },
        7,
    );
    let g = bg.graph();
    assert!(g.node_count() > 1500, "got {}", g.node_count());
    let terminals = random_terminals(g, None, 12, 99);
    let token = mcc_graph::CancelToken::unbounded();
    let mut ws = mcc_graph::Workspace::new();
    let order: Vec<NodeId> = g.nodes().collect();
    let t0 = Instant::now();
    let tree = mcc::steiner::algorithm2(&mut ws, g, &terminals, &order, &token)
        .expect("block trees are connected");
    let alg2 = t0.elapsed();
    assert!(terminals.is_subset_of(&tree.nodes));
    assert!(alg2.as_secs() < 30, "Algorithm 2 took {alg2:?}");

    // Algorithm 1 on a ~1500-relation join-tree schema.
    let (_, bg) = random_alpha_acyclic(
        mcc_gen::join_tree::JoinTreeShape {
            num_edges: 1500,
            max_shared: 3,
            max_fresh: 2,
        },
        11,
    );
    assert!(bg.graph().node_count() > 1500);
    let terminals = random_terminals(bg.graph(), Some(&bg.v1_set()), 10, 5);
    let t0 = Instant::now();
    let order = mcc::steiner::lemma1_ordering(&bg, Side::V2)
        .expect("on-class")
        .order;
    let tree = mcc::steiner::algorithm1(&mut ws, &bg, &terminals, Side::V2, &order, &token)
        .expect("connected");
    let alg1 = t0.elapsed();
    assert!(tree.is_valid_tree(bg.graph()));
    assert!(alg1.as_secs() < 30, "Algorithm 1 took {alg1:?}");

    println!(
        "scale: algorithm2 on {} nodes in {alg2:?}; algorithm1 on {} nodes in {alg1:?}",
        g.node_count(),
        bg.graph().node_count()
    );
}

/// Scale check for the recognizers: full classification of a ~700-node
/// schema stays in seconds.
#[test]
#[ignore = "scale test; run explicitly"]
fn classification_scales() {
    use std::time::Instant;
    let bg = random_six_two_block_tree(
        mcc_gen::block_tree::BlockTreeShape {
            blocks: 150,
            max_block: 4,
        },
        3,
    );
    let t0 = Instant::now();
    let c = classify_bipartite(&bg);
    let took = t0.elapsed();
    assert!(c.six_two);
    assert!(took.as_secs() < 60, "classification took {took:?}");
    println!("classified {} nodes in {took:?}", bg.graph().node_count());
}
