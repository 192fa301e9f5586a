//! Every field of `classify_bipartite` against an independent oracle, on
//! every labelled bipartite graph with `|V1| = |V2| = 4` (2^16 graphs,
//! isolated nodes included).
//!
//! The classifier tests the classes strongest first and, on (6,1)
//! graphs, sets the four Vᵢ fields by Corollary 2 without running their
//! recognizers. The oracles below never take that shortcut, so this
//! suite keeps Theorem 1(v)/(vi) checked on (6,1) graphs too:
//!
//! * (6,1): β-acyclicity of `H¹` (Theorem 1(iii));
//! * (6,2): the literal Definition 4 predicate by cycle enumeration;
//! * (4,1): the forest test;
//! * Vᵢ-chordality: chordality of the labelled projection onto `V_{3-i}`;
//! * Vᵢ-conformity: Gilmore's test on the labelled witness-side
//!   hypergraph.
//!
//! The `V1` oracles of a graph are the `V2` oracles of its transpose
//! (the same graph with the sides exchanged), so each Vᵢ oracle runs
//! once per graph, on the `V2` side. The literal Definition 5 predicates
//! are exponential, so they run on every graph with `|V1|, |V2| ≤ 3`.

use mcc_chordality::vi_conformal::hypergraph_of_witness_side;
use mcc_chordality::{
    classify_bipartite, is_chordal, is_chordal_bipartite_via_beta, is_forest,
    is_mn_chordal_bruteforce, is_vi_chordal_bruteforce, is_vi_conformal_bruteforce, project_onto,
    BipartiteClassification,
};
use mcc_graph::bipartite::bipartite_from_lists;
use mcc_graph::{BipartiteGraph, CycleLimits, Side};
use mcc_hypergraph::is_conformal;

const LABELS: [&str; 4] = ["a", "b", "c", "d"];
const REL_LABELS: [&str; 4] = ["R", "S", "T", "U"];

/// The bipartite graph on `n1 + n2` nodes whose edge `(i, j)` is present
/// iff bit `i * n2 + j` of `mask` is set.
fn graph_of_mask(n1: usize, n2: usize, mask: u32) -> BipartiteGraph {
    let edges: Vec<(usize, usize)> = (0..n1)
        .flat_map(|i| (0..n2).map(move |j| (i, j)))
        .filter(|&(i, j)| mask & (1 << (i * n2 + j)) != 0)
        .collect();
    bipartite_from_lists(&LABELS[..n1], &REL_LABELS[..n2], &edges)
}

fn vi_chordal_oracle(bg: &BipartiteGraph, witness_side: Side) -> bool {
    is_chordal(&project_onto(bg, witness_side.opposite()).0)
}

fn vi_conformal_oracle(bg: &BipartiteGraph, witness_side: Side) -> bool {
    is_conformal(&hypergraph_of_witness_side(bg, witness_side))
}

/// The mask of the 4+4 graph with the sides exchanged: edge `(i, j)`
/// becomes edge `(j, i)`.
fn transpose(mask: u32) -> u32 {
    (0..16)
        .filter(|b| mask & (1 << b) != 0)
        .fold(0, |t, b| t | 1 << ((b % 4) * 4 + b / 4))
}

#[test]
fn production_matches_definition_exhaustive() {
    let limits = CycleLimits::default();
    // (V2-chordal, V2-conformal) by the oracles, per mask.
    let v2: Vec<(bool, bool)> = (0u32..(1 << 16))
        .map(|mask| {
            let bg = graph_of_mask(4, 4, mask);
            (
                vi_chordal_oracle(&bg, Side::V2),
                vi_conformal_oracle(&bg, Side::V2),
            )
        })
        .collect();
    let mut six_one_graphs = 0;
    for mask in 0u32..(1 << 16) {
        let bg = graph_of_mask(4, 4, mask);
        let g = bg.graph();
        let got = classify_bipartite(&bg);
        let (v1_chordal, v1_conformal) = v2[transpose(mask) as usize];
        let (v2_chordal, v2_conformal) = v2[mask as usize];
        let want = BipartiteClassification {
            four_one: is_forest(g),
            six_two: is_mn_chordal_bruteforce(g, 6, 2, limits),
            six_one: is_chordal_bipartite_via_beta(&bg),
            v1_chordal,
            v1_conformal,
            v2_chordal,
            v2_conformal,
        };
        assert_eq!(got, want, "mask={mask:#06x}");
        six_one_graphs += usize::from(got.six_one);
    }
    // Both branches of the classifier are exercised.
    assert!(six_one_graphs > 0 && six_one_graphs < 1 << 16);
}

#[test]
fn transpose_exchanges_the_sides() {
    let mask = 0b0000_0000_0000_0110; // edges (0, 1) and (0, 2)
    let t = graph_of_mask(4, 4, transpose(mask));
    let g = t.graph();
    let node = |label| g.node_by_label(label).expect("fixture label");
    let (c, b, r) = (node("c"), node("b"), node("R"));
    assert_eq!(g.edge_count(), 2);
    assert!(g.has_edge(c, r) && g.has_edge(b, r));
    assert_eq!(transpose(transpose(0xbeef)), 0xbeef);
}

#[test]
fn production_matches_definition_exhaustive_vi_definitions() {
    let limits = CycleLimits::default();
    for n1 in 0..=3 {
        for n2 in 0..=3 {
            for mask in 0u32..(1 << (n1 * n2)) {
                let bg = graph_of_mask(n1, n2, mask);
                let c = classify_bipartite(&bg);
                let at = format!("n1={n1} n2={n2} mask={mask:#x}");
                assert_eq!(
                    c.v1_chordal,
                    is_vi_chordal_bruteforce(&bg, Side::V1, limits),
                    "{at}"
                );
                assert_eq!(
                    c.v2_chordal,
                    is_vi_chordal_bruteforce(&bg, Side::V2, limits),
                    "{at}"
                );
                assert_eq!(
                    c.v1_conformal,
                    is_vi_conformal_bruteforce(&bg, Side::V1),
                    "{at}"
                );
                assert_eq!(
                    c.v2_conformal,
                    is_vi_conformal_bruteforce(&bg, Side::V2),
                    "{at}"
                );
            }
        }
    }
}
