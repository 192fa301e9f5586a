//! Property-based verification of the structural lemmas behind
//! Theorem 5: Lemma 4 (nonredundant paths) and Lemma 5 (nonredundant
//! covers) characterize (6,2)-chordality *exactly* — both directions are
//! "if and only if" in the paper, and both are checked here against the
//! independent (6,2) recognizer.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_chordality::{is_six_two_chordal, is_vi_chordal, is_vi_conformal};
use mcc_graph::{builder::graph_from_edges, BipartiteGraph, NodeId, NodeSet, Side};
use mcc_steiner::{is_minimum_path, is_nonredundant_cover, is_nonredundant_path};
use proptest::prelude::*;

/// Random bipartite graph on ≤ 4+4 nodes.
fn small_bipartite() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..=4, 2usize..=4)
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

/// Enumerate every simple path of `g` (as node sequences, each direction
/// once) and report whether some nonredundant path fails to be minimum.
fn has_nonredundant_nonminimum_path(g: &mcc_graph::Graph) -> bool {
    let mut stack: Vec<Vec<NodeId>> = g.nodes().map(|v| vec![v]).collect();
    while let Some(path) = stack.pop() {
        let last = *path.last().expect("nonempty");
        for &next in g.neighbors(last) {
            if path.contains(&next) {
                continue;
            }
            // Canonical direction: only extend paths whose first node is
            // the smaller endpoint (halves the work, loses nothing —
            // nonredundancy and minimality are direction-symmetric).
            let mut p2 = path.clone();
            p2.push(next);
            if p2[0] < *p2.last().expect("nonempty")
                && is_nonredundant_path(g, &p2)
                && !is_minimum_path(g, &p2)
            {
                return true;
            }
            stack.push(p2);
        }
    }
    false
}

/// Enumerate every terminal set and every cover and report whether some
/// nonredundant cover fails to be minimum.
fn has_nonredundant_nonminimum_cover(g: &mcc_graph::Graph) -> bool {
    let n = g.node_count();
    for tmask in 1u32..(1 << n) {
        let terminals = NodeSet::from_nodes(
            n,
            (0..n)
                .filter(|i| tmask & (1 << i) != 0)
                .map(NodeId::from_index),
        );
        let Some(min) = mcc_steiner::minimum_cover_bruteforce(g, &terminals) else {
            continue;
        };
        // All covers ⊇ terminals.
        let free: Vec<NodeId> = g.nodes().filter(|v| !terminals.contains(*v)).collect();
        for cmask in 0u32..(1 << free.len()) {
            let mut cover = terminals.clone();
            for (i, &v) in free.iter().enumerate() {
                if cmask & (1 << i) != 0 {
                    cover.insert(v);
                }
            }
            if is_nonredundant_cover(g, &cover, &terminals) && cover.len() > min.len() {
                return true;
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Lemma 4, both directions: (6,2)-chordal ⟺ every nonredundant
    /// path is minimum.
    #[test]
    fn lemma4_iff(bg in small_bipartite()) {
        let g = bg.graph();
        prop_assert_eq!(
            is_six_two_chordal(&bg),
            !has_nonredundant_nonminimum_path(g),
            "Lemma 4 equivalence failed"
        );
    }

    /// Lemma 5, both directions: (6,2)-chordal ⟺ every nonredundant
    /// cover (of every terminal set) is minimum.
    #[test]
    fn lemma5_iff(bg in small_bipartite()) {
        let g = bg.graph();
        prop_assert_eq!(
            is_six_two_chordal(&bg),
            !has_nonredundant_nonminimum_cover(g),
            "Lemma 5 equivalence failed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Lemma 2: on a V₂-chordal, V₂-conformal graph, every cycle of
    /// length ≥ 6 and every pair of its V1 nodes at cycle-distance 2
    /// admit a V₂ witness adjacent to both and to a third cycle node.
    #[test]
    fn lemma2_cycle_witnesses(bg in small_bipartite()) {
        if !(is_vi_chordal(&bg, Side::V2) && is_vi_conformal(&bg, Side::V2)) {
            return Ok(());
        }
        let g = bg.graph();
        let cycles = mcc_graph::enumerate_cycles(g, mcc_graph::CycleLimits::default());
        for c in cycles.iter().filter(|c| c.len() >= 6) {
            for i in 0..c.len() {
                let j = (i + 2) % c.len();
                let (v1, v2) = (c.0[i], c.0[j]);
                if bg.side(v1) != Side::V1 || bg.side(v2) != Side::V1 {
                    continue;
                }
                let witnessed = bg.side_nodes(Side::V2).any(|w| {
                    g.has_edge(w, v1)
                        && g.has_edge(w, v2)
                        && c.0.iter().any(|&x| x != v1 && x != v2 && g.has_edge(w, x))
                });
                prop_assert!(
                    witnessed,
                    "Lemma 2 violated at cycle {:?}, pair ({v1:?}, {v2:?})",
                    c.0
                );
            }
        }
    }
}

#[test]
fn lemma4_witness_on_one_chord_hexagon() {
    // Deterministic companion: the Fig. 3(c)/Fig. 10 shape.
    let mut e: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
    e.push((1, 4));
    let g = graph_from_edges(6, &e);
    let bg = BipartiteGraph::from_graph(g.clone()).expect("even cycle");
    assert!(!is_six_two_chordal(&bg));
    assert!(has_nonredundant_nonminimum_path(&g));
    assert!(has_nonredundant_nonminimum_cover(&g));
}
