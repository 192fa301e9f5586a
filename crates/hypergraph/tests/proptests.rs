//! Property-based cross-validation of the acyclicity recognizers against
//! the definitional (Definition 6) cycle finders and against each other.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_hypergraph::{
    dual::{dual, index_identical},
    find_beta_cycle, find_gamma_cycle, gyo_reduce, incidence_bipartite, is_alpha_acyclic,
    is_berge_acyclic, is_beta_acyclic, is_conformal, is_conformal_bruteforce, is_gamma_acyclic,
    join_tree, AcyclicityDegree, Hypergraph, HypergraphBuilder,
};
use proptest::prelude::*;

/// A random hypergraph on ≤ 7 nodes with ≤ 6 edges, drawn from nonempty
/// node subsets encoded as bitmasks.
fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..=7).prop_flat_map(|n| {
        let edge = 1u32..(1 << n);
        proptest::collection::vec(edge, 1..=6).prop_map(move |masks| {
            let mut b = HypergraphBuilder::new();
            let nodes: Vec<_> = (0..n).map(|i| b.add_node(format!("n{i}"))).collect();
            for (i, mask) in masks.iter().enumerate() {
                let members = nodes
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| mask & (1 << *j) != 0)
                    .map(|(_, &v)| v);
                b.add_edge(format!("e{i}"), members).expect("mask nonzero");
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// GYO and the Tarjan–Yannakakis join tree are two independent
    /// α-acyclicity recognizers; they must agree everywhere (the TY
    /// theorem: the MCS order has RIP exactly on α-acyclic inputs).
    #[test]
    fn alpha_recognizers_agree(h in small_hypergraph()) {
        prop_assert_eq!(gyo_reduce(&h).acyclic, is_alpha_acyclic(&h));
    }

    /// β-acyclicity via nest points ⟺ no definitional β-cycle.
    #[test]
    fn beta_recognizer_matches_definition(h in small_hypergraph()) {
        prop_assert_eq!(is_beta_acyclic(&h), find_beta_cycle(&h).is_none());
    }

    /// γ-acyclicity recognizer ⟺ no definitional γ-cycle.
    #[test]
    fn gamma_recognizer_matches_definition(h in small_hypergraph()) {
        prop_assert_eq!(is_gamma_acyclic(&h), find_gamma_cycle(&h).is_none());
    }

    /// The hierarchy is nested: Berge ⟹ γ ⟹ β ⟹ α.
    #[test]
    fn hierarchy_is_nested(h in small_hypergraph()) {
        if is_berge_acyclic(&h) {
            prop_assert!(is_gamma_acyclic(&h));
        }
        if is_gamma_acyclic(&h) {
            prop_assert!(is_beta_acyclic(&h));
        }
        if is_beta_acyclic(&h) {
            prop_assert!(is_alpha_acyclic(&h));
        }
    }

    /// Corollary 1: Berge-, γ-, and β-acyclicity are self-dual.
    #[test]
    fn corollary1_duality(h in small_hypergraph()) {
        if let Ok(d) = dual(&h) {
            prop_assert_eq!(is_berge_acyclic(&h), is_berge_acyclic(&d));
            prop_assert_eq!(is_gamma_acyclic(&h), is_gamma_acyclic(&d));
            prop_assert_eq!(is_beta_acyclic(&h), is_beta_acyclic(&d));
            // Double dual is the identity.
            let dd = dual(&d).expect("dual has no isolated nodes");
            prop_assert!(index_identical(&h, &dd));
        }
    }

    /// Gilmore's conformality criterion matches the clique-based one.
    #[test]
    fn conformality_tests_agree(h in small_hypergraph()) {
        prop_assert_eq!(is_conformal(&h), is_conformal_bruteforce(&h));
    }

    /// Incidence graph roundtrip preserves the hypergraph.
    #[test]
    fn incidence_roundtrip(h in small_hypergraph()) {
        let g = incidence_bipartite(&h);
        let (h2, _, _) = mcc_hypergraph::h1_of_bipartite(&g).expect("no empty edges");
        // Node universes can differ if h has isolated nodes: incidence
        // keeps them on side V1, so counts match.
        prop_assert!(index_identical(&h, &h2));
    }

    /// The strongest-degree classification is consistent with the
    /// individual predicates.
    #[test]
    fn classification_consistent(h in small_hypergraph()) {
        let d = AcyclicityDegree::of(&h);
        prop_assert_eq!(d >= AcyclicityDegree::Alpha, is_alpha_acyclic(&h));
        prop_assert_eq!(d >= AcyclicityDegree::Beta, is_beta_acyclic(&h));
        prop_assert_eq!(d >= AcyclicityDegree::Gamma, is_gamma_acyclic(&h));
        prop_assert_eq!(d >= AcyclicityDegree::Berge, is_berge_acyclic(&h));
    }

    /// The dual running-intersection node ordering (the displayed
    /// property after Corollary 1) exists for every β-acyclic hypergraph
    /// and validates literally; and it exists exactly when the dual is
    /// α-acyclic.
    #[test]
    fn dual_node_ordering_property(h in small_hypergraph()) {
        match mcc_hypergraph::dual_node_ordering(&h) {
            Err(_) => {} // isolated nodes: dual undefined
            Ok(None) => {
                let d = dual(&h).expect("no isolated nodes on this branch");
                prop_assert!(!is_alpha_acyclic(&d));
                prop_assert!(!is_beta_acyclic(&h), "beta-acyclic must admit the ordering");
            }
            Ok(Some((order, wit))) => {
                prop_assert!(mcc_hypergraph::check_dual_node_ordering(&h, &order, &wit));
            }
        }
    }

    /// A RIP ordering, when it exists, is a valid join tree.
    #[test]
    fn rip_ordering_is_valid_join_tree(h in small_hypergraph()) {
        if let Some(jt) = join_tree(&h) {
            prop_assert!(jt.is_valid(&h));
        }
    }
}
