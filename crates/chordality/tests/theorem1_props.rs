//! Property-based verification of Theorem 1 — the paper's bridge between
//! bipartite-graph chordality and hypergraph acyclicity — plus the
//! definitional cross-checks of every recognizer.
//!
//! Because the graph-side recognizers (bisimplicial elimination, the
//! 6-cycle scan, projections) and the hypergraph-side recognizers (nest
//! points, γ-triples, GYO/MCS) are implemented independently, each
//! equivalence below is a genuine check of the theorem, not a tautology.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_chordality::{
    chordal_bipartite::drop_isolated_v2, classify_bipartite, is_chordal_bipartite, is_forest,
    is_mn_chordal_bruteforce, is_six_two_chordal, is_six_two_chordal_bruteforce, is_vi_chordal,
    is_vi_chordal_bruteforce, is_vi_conformal, is_vi_conformal_bruteforce,
};
use mcc_graph::{builder::graph_from_edges, BipartiteGraph, CycleLimits, Side};
use mcc_hypergraph::{
    h1_of_bipartite, is_alpha_acyclic, is_berge_acyclic, is_beta_acyclic, is_gamma_acyclic,
};
use proptest::prelude::*;

/// Random bipartite graph: `n1 × n2 ≤ 5 × 5`, every possible edge tossed
/// independently.
fn small_bipartite() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..=5, 2usize..=5)
        .prop_flat_map(|(n1, n2)| {
            proptest::collection::vec(proptest::bool::ANY, n1 * n2)
                .prop_map(move |coins| (n1, n2, coins))
        })
        .prop_map(|(n1, n2, coins)| {
            let mut edges = Vec::new();
            for i in 0..n1 {
                for j in 0..n2 {
                    if coins[i * n2 + j] {
                        edges.push((i, n1 + j));
                    }
                }
            }
            let g = graph_from_edges(n1 + n2, &edges);
            let mut side = vec![Side::V1; n1];
            side.extend(std::iter::repeat(Side::V2).take(n2));
            BipartiteGraph::new(g, side).expect("bipartite by construction")
        })
}

fn h1(bg: &BipartiteGraph) -> mcc_hypergraph::Hypergraph {
    let (h, _, _) = h1_of_bipartite(&drop_isolated_v2(bg)).expect("isolated V2 dropped");
    h
}

fn h2(bg: &BipartiteGraph) -> mcc_hypergraph::Hypergraph {
    h1(&bg.swap_sides())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Theorem 1(i): (4,1)-chordal ⟺ H¹ Berge-acyclic ⟺ G acyclic.
    #[test]
    fn theorem1_i(bg in small_bipartite()) {
        prop_assert_eq!(is_forest(bg.graph()), is_berge_acyclic(&h1(&bg)));
    }

    /// Theorem 1(ii): (6,2)-chordal ⟺ H¹ γ-acyclic.
    #[test]
    fn theorem1_ii(bg in small_bipartite()) {
        prop_assert_eq!(is_six_two_chordal(&bg), is_gamma_acyclic(&h1(&bg)));
    }

    /// Theorem 1(iii): (6,1)-chordal ⟺ H¹ β-acyclic.
    #[test]
    fn theorem1_iii(bg in small_bipartite()) {
        prop_assert_eq!(is_chordal_bipartite(bg.graph()), is_beta_acyclic(&h1(&bg)));
    }

    /// Theorem 1(iv): the (i)–(iii) properties equally hold of H² — i.e.
    /// the graph-side class is side-symmetric for (4,1)/(6,2)/(6,1).
    #[test]
    fn theorem1_iv(bg in small_bipartite()) {
        prop_assert_eq!(is_forest(bg.graph()), is_berge_acyclic(&h2(&bg)));
        prop_assert_eq!(is_six_two_chordal(&bg), is_gamma_acyclic(&h2(&bg)));
        prop_assert_eq!(is_chordal_bipartite(bg.graph()), is_beta_acyclic(&h2(&bg)));
    }

    /// Theorem 1(v): V₂-chordal ∧ V₂-conformal ⟺ H¹ α-acyclic.
    #[test]
    fn theorem1_v(bg in small_bipartite()) {
        let lhs = is_vi_chordal(&bg, Side::V2) && is_vi_conformal(&bg, Side::V2);
        prop_assert_eq!(lhs, is_alpha_acyclic(&h1(&bg)));
    }

    /// Theorem 1(vi): V₁-chordal ∧ V₁-conformal ⟺ H² α-acyclic.
    #[test]
    fn theorem1_vi(bg in small_bipartite()) {
        let lhs = is_vi_chordal(&bg, Side::V1) && is_vi_conformal(&bg, Side::V1);
        prop_assert_eq!(lhs, is_alpha_acyclic(&h2(&bg)));
    }

    /// Corollary 2: (6,1)-chordal ⟹ Vᵢ-chordal ∧ Vᵢ-conformal (i = 1, 2).
    #[test]
    fn corollary2(bg in small_bipartite()) {
        if is_chordal_bipartite(bg.graph()) {
            for side in [Side::V1, Side::V2] {
                prop_assert!(is_vi_chordal(&bg, side));
                prop_assert!(is_vi_conformal(&bg, side));
            }
        }
    }

    /// Containment chain (4,1) ⊂ (6,2) ⊂ (6,1).
    #[test]
    fn containment_chain(bg in small_bipartite()) {
        let c = classify_bipartite(&bg);
        if c.four_one { prop_assert!(c.six_two); }
        if c.six_two { prop_assert!(c.six_one); }
    }

    /// Definitional cross-checks of every recognizer (Definition 4 / 5
    /// taken literally).
    #[test]
    fn recognizers_match_definitions(bg in small_bipartite()) {
        let lim = CycleLimits::default();
        let g = bg.graph();
        prop_assert_eq!(
            is_chordal_bipartite(g),
            is_mn_chordal_bruteforce(g, 6, 1, lim)
        );
        prop_assert_eq!(
            is_six_two_chordal(&bg),
            is_six_two_chordal_bruteforce(g, lim)
        );
        prop_assert_eq!(is_forest(g), is_mn_chordal_bruteforce(g, 4, 1, lim));
        for side in [Side::V1, Side::V2] {
            prop_assert_eq!(
                is_vi_chordal(&bg, side),
                is_vi_chordal_bruteforce(&bg, side, lim)
            );
            prop_assert_eq!(
                is_vi_conformal(&bg, side),
                is_vi_conformal_bruteforce(&bg, side)
            );
        }
    }
}
