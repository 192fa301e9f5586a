//! Round-trip properties of the on-disk format, and the differential
//! warm-start guarantee: artifacts decoded from disk are not merely
//! "equivalent" to a cold build — they drive `Solver::from_artifacts`
//! to **identical solutions**.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc::{SchemaArtifacts, Solver, SolverConfig};
use mcc_graph::{builder::graph_from_edges, BipartiteGraph, NodeId, NodeSet, Side};
use mcc_store::{decode, encode};
use proptest::prelude::*;
use std::sync::Arc;

/// An adversarial label for seed `(pool, salt)`: empty strings,
/// multi-byte UTF-8, whitespace, and path-hostile characters all appear
/// — the encoder must treat labels as opaque length-prefixed bytes.
fn label_for(pool: usize, salt: u32) -> String {
    match pool % 4 {
        0 => format!("attr_{salt}"),
        1 => String::new(),
        2 => format!("düsseldorf/µ-{salt}"),
        _ => format!("a b\tc\n{salt}"),
    }
}

/// Random bipartite graph with adversarial labels: sizes up to 6 × 6,
/// every cross edge tossed independently.
fn labelled_bipartite() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..=6, 2usize..=6)
        .prop_flat_map(move |(n1, n2)| {
            (
                proptest::collection::vec(proptest::bool::ANY, n1 * n2),
                proptest::collection::vec((0usize..4, 0u32..1000), n1 + n2),
            )
                .prop_map(move |(coins, labels)| (n1, n2, coins, labels))
        })
        .prop_map(|(n1, n2, coins, labels)| {
            let mut edges = Vec::new();
            for i in 0..n1 {
                for j in 0..n2 {
                    if coins[i * n2 + j] {
                        edges.push((i, n1 + j));
                    }
                }
            }
            let g = graph_from_edges(n1 + n2, &edges);
            let mut b = mcc_graph::GraphBuilder::new();
            for (pool, salt) in labels {
                // graph_from_edges names nodes by index; rebuild with
                // the adversarial labels but identical structure.
                b.add_node(label_for(pool, salt));
            }
            b.add_edges(g.edges()).expect("same structure");
            let mut side = vec![Side::V1; n1];
            side.extend(std::iter::repeat(Side::V2).take(n2));
            BipartiteGraph::new(b.build(), side).expect("bipartite by construction")
        })
}

/// Every node as a terminal candidate pool: pick a nonempty subset.
fn terminals(n: usize, picks: &[bool]) -> NodeSet {
    let mut t = NodeSet::new(n);
    for (i, &on) in picks.iter().enumerate().take(n) {
        if on {
            t.insert(NodeId::from_index(i));
        }
    }
    if t.is_empty() {
        t.insert(NodeId::from_index(0));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode ∘ decode is the identity — on every part of the bundle,
    /// the graph's labels and their lookup included, and on the bytes
    /// themselves (canonical form re-encodes equal).
    #[test]
    fn encode_decode_identity(bg in labelled_bipartite(), key in 0u64..=u64::MAX - 1) {
        let original = SchemaArtifacts::build(bg);
        let bytes = encode(key, &original);
        let (fp, decoded) = decode(&bytes, Some(key)).expect("own encoding decodes");
        prop_assert_eq!(fp, key);
        prop_assert_eq!(decoded.bipartite(), original.bipartite());
        // The label sequence survives, and so does lookup by label
        // (duplicate labels resolve to the same, lowest, node).
        let (og, dg) = (original.bipartite().graph(), decoded.bipartite().graph());
        prop_assert!(og.nodes().map(|v| og.label(v)).eq(dg.nodes().map(|v| dg.label(v))));
        for v in og.nodes() {
            prop_assert_eq!(dg.node_by_label(og.label(v)), og.node_by_label(og.label(v)));
        }
        prop_assert_eq!(decoded.classification(), original.classification());
        prop_assert_eq!(decoded.elimination_order(), original.elimination_order());
        for side in [Side::V1, Side::V2] {
            prop_assert_eq!(
                decoded.lemma1(side).map(|l| (&l.order, &l.join_tree.order, &l.join_tree.parent)),
                original.lemma1(side).map(|l| (&l.order, &l.join_tree.order, &l.join_tree.parent))
            );
        }
        prop_assert_eq!(encode(key, &decoded), bytes);
    }

    /// The warm-start differential: a solver over decoded artifacts
    /// returns solutions identical (tree, cost, strategy, degradation)
    /// to a solver over the cold-built bundle — for both query kinds.
    #[test]
    fn decoded_artifacts_solve_identically(
        bg in labelled_bipartite(),
        picks in proptest::collection::vec(proptest::bool::ANY, 12),
    ) {
        let n = bg.graph().node_count();
        let cold = Arc::new(SchemaArtifacts::build(bg));
        let bytes = encode(1, &cold);
        let (_, warm) = decode(&bytes, Some(1)).expect("round trip");
        let warm = Arc::new(warm);

        let cold_solver = Solver::from_artifacts(Arc::clone(&cold), SolverConfig::default());
        let warm_solver = Solver::from_artifacts(warm, SolverConfig::default());
        let t = terminals(n, &picks);

        let a = cold_solver.solve_steiner(&t);
        let b = warm_solver.solve_steiner(&t);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.tree, &b.tree, "steiner trees diverged");
                prop_assert_eq!(a.cost, b.cost);
                prop_assert_eq!(a.strategy, b.strategy);
                prop_assert_eq!(a.degraded.is_some(), b.degraded.is_some());
            }
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err(), "outcomes diverged"),
        }

        for side in [Side::V2, Side::V1] {
            let a = cold_solver.solve_pseudo(&t, side);
            let b = warm_solver.solve_pseudo(&t, side);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.tree, &b.tree, "pseudo trees diverged");
                    prop_assert_eq!(a.cost, b.cost);
                    prop_assert_eq!(a.strategy, b.strategy);
                }
                (a, b) => prop_assert_eq!(a.is_err(), b.is_err(), "outcomes diverged"),
            }
        }
    }

    /// Decode is total: arbitrary bytes never panic — they either parse
    /// (vanishingly unlikely) or fail with a structured error.
    #[test]
    fn decode_never_panics_on_fuzz(bytes in proptest::collection::vec(0u8..=255, 0usize..256)) {
        let _ = decode(&bytes, None);
    }

    /// Prefix-corruption fuzz: truncations and flips of a *valid* blob
    /// are always rejected or decode to the identical bundle (CRC
    /// collisions notwithstanding at this blob size, rejection is what
    /// actually happens — the assertion allows either, panics neither).
    #[test]
    fn mutated_valid_blobs_never_yield_garbage(
        bg in labelled_bipartite(),
        at in 0usize..1 << 16,
        mask in 1u8..=255,
    ) {
        let original = SchemaArtifacts::build(bg);
        let bytes = encode(9, &original);
        let mut corrupt = bytes.clone();
        let i = at % corrupt.len();
        corrupt[i] ^= mask;
        if let Ok((_, decoded)) = decode(&corrupt, Some(9)) {
            prop_assert_eq!(encode(9, &decoded), bytes, "corruption slipped through");
        }
    }
}
