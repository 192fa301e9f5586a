//! The paper's figures as ready-made instances.
//!
//! Figures 1–11 are reconstructed as code. The scanned source available
//! to this reproduction renders several figures unreadably (in
//! particular Figs. 2, 5, 8, 11 survive only through their captions and
//! the surrounding prose), so each instance here is built to satisfy
//! **exactly the properties the text attributes to it**, and every such
//! property is asserted by the `figures` test suite and the
//! `integration_figures` tests. Fig. 7 illustrates a step inside the
//! proof of Lemma 3 and carries no standalone instance.

use mcc_datamodel::ErSchema;
use mcc_graph::{bipartite::bipartite_from_lists, BipartiteGraph, NodeId, NodeSet};
use mcc_hypergraph::Hypergraph;
use mcc_reductions::{CspcGadget, Theorem2Gadget, X3cInstance};

/// Fig. 1: the EMPLOYEE/WORKS/DEPARTMENT entity-relationship scheme whose
/// EMPLOYEE–DATE query has the two interpretations of the introduction.
pub fn fig1() -> ErSchema {
    mcc_datamodel::er::fig1_schema()
}

/// Fig. 2: a bipartite graph `G` with `H¹_G` α-acyclic but `H²_G` (its
/// dual) **not** α-acyclic — the witness that α-acyclicity is not
/// self-dual (remark after Corollary 1).
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// The bipartite graph (attributes A–F on `V1`, relations 1–4 on
    /// `V2`).
    pub g: BipartiteGraph,
    /// `H¹_G` (α-acyclic).
    pub h1: Hypergraph,
    /// `H²_G` = dual of `H¹_G` (not α-acyclic).
    pub h2: Hypergraph,
}

/// Builds Fig. 2. The edge sets are `1 = {A,B,D}`, `2 = {B,C,E}`,
/// `3 = {A,C,F}`, `4 = {A,B,C}`: a covered triangle (α-acyclic, GYO
/// erases it) whose dual exposes the uncovered 4-clique `{1,2,3,4}`.
pub fn fig2() -> Fig2 {
    let g = bipartite_from_lists(
        &["A", "B", "C", "D", "E", "F"],
        &["1", "2", "3", "4"],
        &[
            (0, 0),
            (1, 0),
            (3, 0), // 1 = {A, B, D}
            (1, 1),
            (2, 1),
            (4, 1), // 2 = {B, C, E}
            (0, 2),
            (2, 2),
            (5, 2), // 3 = {A, C, F}
            (0, 3),
            (1, 3),
            (2, 3), // 4 = {A, B, C}
        ],
    );
    #[expect(
        clippy::expect_used,
        reason = "Fig. 2's static edge list leaves no V2 node isolated"
    )]
    let (h1, _, _) = mcc_hypergraph::h1_of_bipartite(&g).expect("no isolated V2 nodes");
    #[expect(
        clippy::expect_used,
        reason = "Fig. 2's static edge list leaves no V1 node isolated"
    )]
    let (h2, _, _) = mcc_hypergraph::h2_of_bipartite(&g).expect("no isolated V1 nodes");
    Fig2 { g, h1, h2 }
}

/// Fig. 3: the three chordal bipartite examples.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// (a) a (4,1)-chordal (acyclic) bipartite graph.
    pub a: BipartiteGraph,
    /// (b) a (6,2)-chordal bipartite graph (6-cycle, two chords).
    pub b: BipartiteGraph,
    /// (c) a (6,1)-chordal bipartite graph that is not (6,2) (6-cycle,
    /// one chord) — also the Theorem 5 non-example discussed after
    /// Corollary 4.
    pub c: BipartiteGraph,
}

/// Builds Fig. 3.
pub fn fig3() -> Fig3 {
    // (a): a forest over {A..F} × {1,2,3}.
    let a = bipartite_from_lists(
        &["A", "B", "C", "D", "E", "F"],
        &["1", "2", "3"],
        &[(0, 0), (2, 0), (2, 2), (5, 2), (1, 1), (4, 1), (3, 1)],
    );
    // (b): 6-cycle A-1-B-2-C-3-A with chords A-2 and C-1.
    let b = bipartite_from_lists(
        &["A", "B", "C"],
        &["1", "2", "3"],
        &[
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 1),
            (2, 2),
            (0, 2),
            (0, 1),
            (2, 0),
        ],
    );
    // (c): same 6-cycle with the single chord A-2.
    let c = bipartite_from_lists(
        &["A", "B", "C"],
        &["1", "2", "3"],
        &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (0, 1)],
    );
    Fig3 { a, b, c }
}

/// Fig. 4: the acyclic hypergraphs corresponding to Fig. 3 via `H¹`
/// (Theorem 1): (a) Berge-acyclic, (b) γ-acyclic, (c) β-acyclic.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// (a) Berge-acyclic.
    pub berge: Hypergraph,
    /// (b) γ-acyclic (not Berge-acyclic).
    pub gamma: Hypergraph,
    /// (c) β-acyclic (not γ-acyclic).
    pub beta: Hypergraph,
}

/// Builds Fig. 4 from Fig. 3 through the Definition 2 correspondence.
pub fn fig4() -> Fig4 {
    let f3 = fig3();
    #[expect(
        clippy::expect_used,
        reason = "Fig. 3's static edge lists leave no V2 node isolated"
    )]
    let h = |bg: &BipartiteGraph| {
        mcc_hypergraph::h1_of_bipartite(bg)
            .expect("no isolated V2 nodes in fig3")
            .0
    };
    Fig4 {
        berge: h(&f3.a),
        gamma: h(&f3.b),
        beta: h(&f3.c),
    }
}

/// Fig. 5: a bipartite graph that is V₁-chordal, V₁-conformal **and**
/// V₂-chordal, V₂-conformal (both `H¹` and `H²` α-acyclic) yet **not**
/// (6,1)-chordal — witnessing that the containment of Corollary 2 is
/// proper even for the intersection of the two classes.
///
/// Construction: a chordless 6-cycle `x1 y1 x2 y2 x3 y3` plus a `V2` hub
/// adjacent to every `xᵢ` (and to the `V1` hub), and a `V1` hub adjacent
/// to every `yⱼ` (and to the `V2` hub).
pub fn fig5() -> BipartiteGraph {
    bipartite_from_lists(
        &["x1", "x2", "x3", "h1"],
        &["y1", "y2", "y3", "h2"],
        &[
            (0, 0),
            (1, 0), // x1-y1-x2
            (1, 1),
            (2, 1), // x2-y2-x3
            (2, 2),
            (0, 2), // x3-y3-x1
            (0, 3),
            (1, 3),
            (2, 3), // h2 ~ x1,x2,x3
            (3, 0),
            (3, 1),
            (3, 2), // h1 ~ y1,y2,y3
            (3, 3), // h1 ~ h2
        ],
    )
}

/// Fig. 6: the Theorem 2 gadget for the caption's X3C instance
/// `X = {x1..x6}`, `C = {c1, c2, c3}`, `c1 = {x1,x2,x3}`,
/// `c2 = {x3,x4,x5}`, `c3 = {x4,x5,x6}`.
pub fn fig6() -> Theorem2Gadget {
    Theorem2Gadget::build(X3cInstance::new(2, [[0, 1, 2], [2, 3, 4], [3, 4, 5]]))
}

/// Fig. 8: the covers example. The caption's four claims about
/// `P̄ = {A, C, D}` hold on this graph (numbers on `V1`, letters on
/// `V2`, matching the caption's `V1`-counting):
///
/// * `{A,B,C,D,1,3}` induces a nonredundant (but not minimum) cover;
/// * `{A,C,D,2,3}` induces a minimum cover;
/// * `{A,C,D,E,2,4,5}` induces a V₁-nonredundant (not V₁-minimum) cover;
/// * `{A,E,C,D,1,3}` induces a V₁-minimum cover.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// The graph (`V1` = numbers 1–5, `V2` = letters A–E).
    pub g: BipartiteGraph,
    /// The terminal set `P̄ = {A, C, D}`.
    pub terminals: NodeSet,
    /// The caption's nonredundant cover.
    pub nonredundant: NodeSet,
    /// The caption's minimum cover.
    pub minimum: NodeSet,
    /// The caption's V₁-nonredundant cover.
    pub v1_nonredundant: NodeSet,
    /// The caption's V₁-minimum cover.
    pub v1_minimum: NodeSet,
}

/// Builds Fig. 8.
pub fn fig8() -> Fig8 {
    // Numbers first (V1 side of the caption), then letters.
    let g = bipartite_from_lists(
        &["1", "2", "3", "4", "5"],
        &["A", "B", "C", "D", "E"],
        &[
            (0, 0), // A-1
            (1, 0), // A-2
            (0, 1), // B-1
            (2, 1), // B-3
            (1, 2), // C-2
            (2, 2), // C-3
            (4, 2), // C-5
            (2, 3), // D-3
            (3, 3), // D-4
            (0, 4), // E-1
            (2, 4), // E-3
            (3, 4), // E-4
            (4, 4), // E-5
        ],
    );
    #[expect(
        clippy::expect_used,
        reason = "labels come from the static list Fig. 8 was built from"
    )]
    let set = |labels: &[&str]| {
        NodeSet::from_nodes(
            g.graph().node_count(),
            labels
                .iter()
                .map(|l| g.graph().node_by_label(l).expect("fig8 label")),
        )
    };
    Fig8 {
        terminals: set(&["A", "C", "D"]),
        nonredundant: set(&["A", "B", "C", "D", "1", "3"]),
        minimum: set(&["A", "C", "D", "2", "3"]),
        v1_nonredundant: set(&["A", "C", "D", "E", "2", "4", "5"]),
        v1_minimum: set(&["A", "E", "C", "D", "1", "3"]),
        g,
    }
}

/// Fig. 9: the CSPC reduction applied to a small chordal source graph.
#[expect(
    clippy::expect_used,
    reason = "the sample source graph is fixed static data"
)]
pub fn fig9() -> CspcGadget {
    CspcGadget::build(&mcc_reductions::cspc::sample_chordal_source().expect("static data"))
}

/// Fig. 10: the Lemma 4 witness — a 6-cycle with exactly one chord, and
/// the pair `v1, v2` at distance 2 joined by a *nonredundant but not
/// minimum* path around the long side.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// The graph: 6-cycle `0..5` plus chord `(0, 3)`.
    pub g: BipartiteGraph,
    /// The distance-2 pair of the caption.
    pub v1: NodeId,
    /// See `v1`.
    pub v2: NodeId,
    /// The long nonredundant path between them.
    pub long_path: Vec<NodeId>,
}

/// Builds Fig. 10.
pub fn fig10() -> Fig10 {
    let mut edges: Vec<(usize, usize)> = vec![(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)];
    // Bipartite layout: V1 = {0,2,4} as x1..x3, V2 = {1,3,5} as y1..y3;
    // cycle x1-y1-x2-y2-x3-y3-x1, chord x1-y2.
    edges.push((0, 1));
    let g = bipartite_from_lists(&["x1", "x2", "x3"], &["y1", "y2", "y3"], &edges);
    #[expect(
        clippy::expect_used,
        reason = "the closure is only called with Fig. 10's own static labels"
    )]
    let n = |l: &str| g.graph().node_by_label(l).expect("fig10 label");
    Fig10 {
        v1: n("x2"),
        v2: n("x3"),
        long_path: vec![n("x2"), n("y1"), n("x1"), n("y3"), n("x3")],
        g,
    }
}

/// Fig. 11: the Theorem 6 graph — (6,1)-chordal, yet **no** ordering of
/// its nodes is good. The four cases of the proof: whichever of
/// `A, B, 1, 2` comes first in an ordering, the matching terminal set
/// defeats it.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// The graph (letters on `V1`, numbers on `V2`).
    pub g: BipartiteGraph,
    /// The proof's case table: `(first_node, bad_terminal_set)` — any
    /// ordering in which `first_node` precedes the other three central
    /// nodes is not good for the paired terminal set.
    pub cases: Vec<(NodeId, NodeSet)>,
}

/// Builds Fig. 11.
///
/// Structure: central 4-cycle `A-1-B-2`; each central node owns two
/// pendant 4-cycles through peripheral nodes:
/// `3 ~ {A, C}`, `4 ~ {A, D}`, `5 ~ {B, E}`, `6 ~ {B, F}`,
/// `C ~ {3, 1}`, `D ~ {4, 2}`, `E ~ {5, 1}`, `F ~ {6, 2}`.
/// Connecting `{3, C, 4, D}` optimally *requires* `A` (the unique common
/// neighbor of `3` and `4`), but while `1, B, 2` are alive `A` is
/// removable — so eliminating `A` first strands the greedy on the
/// 7-node detour through `C-1-B-2-D`; symmetrically for `B`, `1`, `2`.
pub fn fig11() -> Fig11 {
    let g = bipartite_from_lists(
        &["A", "B", "C", "D", "E", "F"],
        &["1", "2", "3", "4", "5", "6"],
        &[
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3), // A ~ 1,2,3,4
            (1, 0),
            (1, 1),
            (1, 4),
            (1, 5), // B ~ 1,2,5,6
            (2, 0),
            (2, 2), // C ~ 1,3
            (3, 1),
            (3, 3), // D ~ 2,4
            (4, 0),
            (4, 4), // E ~ 1,5
            (5, 1),
            (5, 5), // F ~ 2,6
        ],
    );
    #[expect(
        clippy::expect_used,
        reason = "the closure is only called with Fig. 11's own static labels"
    )]
    let n = |l: &str| g.graph().node_by_label(l).expect("fig11 label");
    let set =
        |labels: &[&str]| NodeSet::from_nodes(g.graph().node_count(), labels.iter().map(|l| n(l)));
    Fig11 {
        cases: vec![
            (n("A"), set(&["3", "C", "4", "D"])),
            (n("B"), set(&["5", "E", "6", "F"])),
            (n("1"), set(&["3", "C", "5", "E"])),
            (n("2"), set(&["4", "D", "6", "F"])),
        ],
        g,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_chordality::{classify_bipartite, is_chordal_bipartite, is_six_two_chordal};
    use mcc_hypergraph::{dual, is_alpha_acyclic, AcyclicityDegree};
    use mcc_steiner::cover::{
        is_nonredundant_cover, is_nonredundant_path, is_side_nonredundant_cover,
        minimum_cover_bruteforce, side_minimum_cover_bruteforce,
    };
    use mcc_steiner::is_minimum_path;

    #[test]
    fn fig2_duality_failure() {
        let f = fig2();
        assert!(is_alpha_acyclic(&f.h1), "H1 must be alpha-acyclic");
        assert!(!is_alpha_acyclic(&f.h2), "H2 must not be alpha-acyclic");
        // H2 really is the dual of H1.
        let d = dual(&f.h1).expect("no isolated nodes");
        assert!(mcc_hypergraph::dual::index_identical(&d, &f.h2));
        // Graph-side reading (Theorem 1 v/vi).
        let c = classify_bipartite(&f.g);
        assert!(c.h1_alpha_acyclic());
        assert!(!c.h2_alpha_acyclic());
    }

    #[test]
    fn fig3_classes_are_exactly_as_labelled() {
        let f = fig3();
        let ca = classify_bipartite(&f.a);
        assert!(ca.four_one && ca.six_two && ca.six_one);
        let cb = classify_bipartite(&f.b);
        assert!(!cb.four_one && cb.six_two && cb.six_one);
        let cc = classify_bipartite(&f.c);
        assert!(!cc.four_one && !cc.six_two && cc.six_one);
    }

    #[test]
    fn fig4_degrees_match_theorem1() {
        let f = fig4();
        assert_eq!(AcyclicityDegree::of(&f.berge), AcyclicityDegree::Berge);
        assert_eq!(AcyclicityDegree::of(&f.gamma), AcyclicityDegree::Gamma);
        assert_eq!(AcyclicityDegree::of(&f.beta), AcyclicityDegree::Beta);
    }

    #[test]
    fn fig5_both_alpha_but_not_six_one() {
        let f = fig5();
        let c = classify_bipartite(&f);
        assert!(c.h1_alpha_acyclic(), "V2-chordal and V2-conformal expected");
        assert!(c.h2_alpha_acyclic(), "V1-chordal and V1-conformal expected");
        assert!(!c.six_one, "must not be (6,1)-chordal");
    }

    #[test]
    fn fig8_caption_claims() {
        let f = fig8();
        let g = f.g.graph();
        let v1 = f.g.v1_set(); // the numbers
        assert!(is_nonredundant_cover(g, &f.nonredundant, &f.terminals));
        let min = minimum_cover_bruteforce(g, &f.terminals).expect("feasible");
        assert_eq!(min.len(), f.minimum.len());
        assert!(mcc_graph::is_cover(g, &f.minimum, &f.terminals));
        assert!(
            f.nonredundant.len() > f.minimum.len(),
            "nonredundant ≠ minimum here"
        );
        assert!(is_side_nonredundant_cover(
            g,
            &f.v1_nonredundant,
            &f.terminals,
            &v1
        ));
        let v1_min = side_minimum_cover_bruteforce(g, &f.terminals, &v1).expect("feasible");
        assert_eq!(
            v1_min.intersection(&v1).len(),
            f.v1_minimum.intersection(&v1).len()
        );
        assert!(mcc_graph::is_cover(g, &f.v1_minimum, &f.terminals));
        assert!(
            f.v1_nonredundant.intersection(&v1).len() > f.v1_minimum.intersection(&v1).len(),
            "V1-nonredundant must not be V1-minimum here"
        );
    }

    #[test]
    fn fig10_lemma4_witness() {
        let f = fig10();
        let g = f.g.graph();
        assert!(is_chordal_bipartite(g));
        assert!(!is_six_two_chordal(&f.g));
        assert!(is_nonredundant_path(g, &f.long_path));
        assert!(!is_minimum_path(g, &f.long_path));
        assert_eq!(f.long_path.first(), Some(&f.v1));
        assert_eq!(f.long_path.last(), Some(&f.v2));
    }

    #[test]
    fn fig11_is_six_one_but_not_six_two() {
        let f = fig11();
        assert!(is_chordal_bipartite(f.g.graph()));
        assert!(!is_six_two_chordal(&f.g));
    }
}
