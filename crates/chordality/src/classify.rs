//! One-call classification of a bipartite graph into every class studied
//! by the paper.

use crate::six_two::sparse_six_cycle;
use crate::{
    find_sparse_six_cycle, find_vi_conformality_violation, is_chordal_bipartite, is_forest,
    is_vi_chordal, is_vi_conformal,
};
use mcc_graph::{BipartiteGraph, Side};
use mcc_hypergraph::AcyclicityDegree;
use std::fmt;

/// Membership of a bipartite graph in each of the paper's classes, plus
/// the algorithmic consequences (which connection problems are tractable,
/// Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BipartiteClassification {
    /// (4,1)-chordal ⟺ acyclic ⟺ `H¹` Berge-acyclic (Theorem 1(i)).
    pub four_one: bool,
    /// (6,2)-chordal ⟺ `H¹` γ-acyclic (Theorem 1(ii)).
    pub six_two: bool,
    /// (6,1)-chordal (chordal bipartite) ⟺ `H¹` β-acyclic (Theorem 1(iii)).
    pub six_one: bool,
    /// V₁-chordal (witnesses in `V1`).
    pub v1_chordal: bool,
    /// V₁-conformal (witnesses in `V1`).
    pub v1_conformal: bool,
    /// V₂-chordal (witnesses in `V2`).
    pub v2_chordal: bool,
    /// V₂-conformal (witnesses in `V2`).
    pub v2_conformal: bool,
}

impl BipartiteClassification {
    /// `H¹_G` is α-acyclic ⟺ V₂-chordal ∧ V₂-conformal (Theorem 1(v),
    /// with the subscript convention documented at the crate root). In
    /// relational-database terms: the schema (attributes = `V1`,
    /// relations = `V2`) is α-acyclic.
    pub fn h1_alpha_acyclic(&self) -> bool {
        self.v2_chordal && self.v2_conformal
    }

    /// The acyclicity degree of `H¹_G`, read off the graph-side classes by
    /// Theorem 1 (i)–(iii) and (v): the strongest class that holds names
    /// the degree. [`AcyclicityDegree::of`] derives the same answer on the
    /// hypergraph itself and stays as the test oracle.
    pub fn h1_degree(&self) -> AcyclicityDegree {
        if self.four_one {
            AcyclicityDegree::Berge
        } else if self.six_two {
            AcyclicityDegree::Gamma
        } else if self.six_one {
            AcyclicityDegree::Beta
        } else if self.h1_alpha_acyclic() {
            AcyclicityDegree::Alpha
        } else {
            AcyclicityDegree::Cyclic
        }
    }

    /// `H²_G` is α-acyclic ⟺ V₁-chordal ∧ V₁-conformal (Theorem 1(vi)).
    pub fn h2_alpha_acyclic(&self) -> bool {
        self.v1_chordal && self.v1_conformal
    }

    /// Section 3 consequence: the full Steiner problem is polynomial on
    /// (6,2)-chordal graphs (Theorem 5); NP-hard in general, and still
    /// NP-hard under α-acyclicity alone (Theorem 2).
    pub fn steiner_polynomial(&self) -> bool {
        self.six_two
    }

    /// Section 3 consequence: pseudo-Steiner w.r.t. `V2` (minimize
    /// relations) is polynomial when the graph is V₂-chordal and
    /// V₂-conformal (Theorem 4).
    pub fn pseudo_steiner_v2_polynomial(&self) -> bool {
        self.h1_alpha_acyclic()
    }

    /// Pseudo-Steiner w.r.t. `V1`, polynomial when V₁-chordal ∧
    /// V₁-conformal (Theorem 4 with the sides swapped), hence in
    /// particular on (6,1)-chordal graphs (Corollary 4 via Corollary 2).
    pub fn pseudo_steiner_v1_polynomial(&self) -> bool {
        self.h2_alpha_acyclic()
    }
}

impl fmt::Display for BipartiteClassification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn yn(b: bool) -> &'static str {
            if b {
                "yes"
            } else {
                "no"
            }
        }
        writeln!(f, "(4,1)-chordal (acyclic):        {}", yn(self.four_one))?;
        writeln!(f, "(6,2)-chordal (gamma-acyclic):  {}", yn(self.six_two))?;
        writeln!(f, "(6,1)-chordal (beta-acyclic):   {}", yn(self.six_one))?;
        writeln!(
            f,
            "V1-chordal / V1-conformal:      {} / {}",
            yn(self.v1_chordal),
            yn(self.v1_conformal)
        )?;
        writeln!(
            f,
            "V2-chordal / V2-conformal:      {} / {}",
            yn(self.v2_chordal),
            yn(self.v2_conformal)
        )?;
        writeln!(
            f,
            "H1 alpha-acyclic:               {}",
            yn(self.h1_alpha_acyclic())
        )?;
        writeln!(
            f,
            "H2 alpha-acyclic:               {}",
            yn(self.h2_alpha_acyclic())
        )?;
        writeln!(
            f,
            "Steiner polynomial:             {}",
            yn(self.steiner_polynomial())
        )?;
        writeln!(
            f,
            "pseudo-Steiner(V2) polynomial:  {}",
            yn(self.pseudo_steiner_v2_polynomial())
        )?;
        write!(
            f,
            "pseudo-Steiner(V1) polynomial:  {}",
            yn(self.pseudo_steiner_v1_polynomial())
        )
    }
}

/// Classifies `bg` into every class of Theorem 1, strongest first.
///
/// ```
/// use mcc_chordality::classify_bipartite;
/// use mcc_graph::bipartite::bipartite_from_lists;
///
/// // A relational schema: two overlapping relations.
/// let bg = bipartite_from_lists(
///     &["a", "b", "c"],
///     &["R1", "R2"],
///     &[(0, 0), (1, 0), (1, 1), (2, 1)],
/// );
/// let class = classify_bipartite(&bg);
/// assert!(class.six_two);                        // γ-acyclic
/// assert!(class.steiner_polynomial());           // Theorem 5 applies
/// assert!(class.pseudo_steiner_v2_polynomial()); // so does Theorem 4
/// ```
///
/// Every recognizer reads the bipartite CSR and its dense bit rows
/// directly — no labelled graph, hypergraph or side-swapped copy is
/// built — and allocates its scratch sized up front, so the allocation
/// count does not grow with the graph on the in-class path.
///
/// The classes are tested from the strongest down, as Theorem 1 and
/// Corollary 2 order them: (4,1) ⊂ (6,2) ⊂ (6,1) ⊂ Vᵢ-chordal ∧
/// Vᵢ-conformal on both sides. A forest is (6,1) with no elimination
/// run; when (6,1) holds, all four Vᵢ fields are true by Corollary 2 (both
/// `Hⁱ` are β-, hence α-acyclic) and their tests are skipped, and only
/// then does the sparse-6-cycle scan decide (6,2). The Vᵢ tests run only
/// when (6,1) fails. The differential suite
/// (`tests/exhaustive_differential.rs`) checks every field against an
/// independent recognizer on all graphs with `|V1| = |V2| = 4`.
pub fn classify_bipartite(bg: &BipartiteGraph) -> BipartiteClassification {
    let _span = mcc_obs::span!(Classify);
    let four_one = is_forest(bg.graph());
    if four_one || is_chordal_bipartite(bg.graph()) {
        return BipartiteClassification {
            four_one,
            // (6,2) = (6,1) ∧ no sparse 6-cycle (`six_two` module docs).
            six_two: four_one || sparse_six_cycle(bg).is_none(),
            six_one: true,
            v1_chordal: true,
            v1_conformal: true,
            v2_chordal: true,
            v2_conformal: true,
        };
    }
    BipartiteClassification {
        four_one,
        six_two: false,
        six_one: false,
        v1_chordal: is_vi_chordal(bg, Side::V1),
        v1_conformal: is_vi_conformal(bg, Side::V1),
        v2_chordal: is_vi_chordal(bg, Side::V2),
        v2_conformal: is_vi_conformal(bg, Side::V2),
    }
}

/// A human-readable diagnosis of why a graph misses each class it
/// misses, with concrete witnesses (labelled nodes). Companion to
/// [`classify_bipartite`] for interfaces that must explain themselves —
/// the paper's query-interface scenario wants exactly this when a schema
/// falls outside the tractable classes. The verdicts are the
/// classification's fields; a witness is computed only for a field that
/// fails.
pub fn explain_classification(bg: &BipartiteGraph) -> String {
    let c = classify_bipartite(bg);
    let g = bg.graph();
    let labels = |nodes: &[mcc_graph::NodeId]| -> String {
        nodes
            .iter()
            .map(|&v| g.label(v))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::new();
    if c.six_two {
        out.push_str("(6,2)-chordal: full Steiner connections are tractable (Theorem 5).\n");
        return out;
    }
    if c.six_one {
        #[expect(
            clippy::expect_used,
            reason = "a (6,1) graph that is not (6,2)-chordal has a sparse 6-cycle by definition"
        )]
        let cyc = find_sparse_six_cycle(bg).expect("(6,1) but not (6,2) has a sparse 6-cycle");
        out.push_str(&format!(
            "not (6,2)-chordal: the 6-cycle [{}] has at most one chord.\n",
            labels(&cyc)
        ));
    } else {
        out.push_str("not (6,1)-chordal: some cycle of length >= 6 is chordless.\n");
    }
    for side in [Side::V2, Side::V1] {
        let (tag, chordal, conformal) = match side {
            Side::V2 => ("V2", c.v2_chordal, c.v2_conformal),
            Side::V1 => ("V1", c.v1_chordal, c.v1_conformal),
        };
        if !chordal {
            let (proj, to_parent) = crate::project_onto(bg, side.opposite());
            if let Some(cycle) = crate::chordal::find_chordless_cycle(&proj) {
                let lifted: Vec<mcc_graph::NodeId> =
                    cycle.iter().map(|&v| to_parent[v.index()]).collect();
                out.push_str(&format!(
                    "not {tag}-chordal: [{}] form a chordless cycle of shared-neighbor links with no {tag} shortcut.\n",
                    labels(&lifted)
                ));
            }
        }
        if !conformal {
            if let Some(w) = find_vi_conformality_violation(bg, side) {
                out.push_str(&format!(
                    "not {tag}-conformal: [{}] pairwise share neighbors but no single {tag} node covers them all.\n",
                    labels(&w.to_vec())
                ));
            }
        }
    }
    match (c.pseudo_steiner_v2_polynomial(), c.pseudo_steiner_v1_polynomial()) {
        (true, true) => out.push_str(
            "pseudo-Steiner is tractable on both sides (Theorem 4); full Steiner is NP-hard here (Theorem 2).\n",
        ),
        (true, false) => out.push_str(
            "pseudo-Steiner w.r.t. V2 is tractable (Theorem 4); the V1 side and full Steiner are not guaranteed.\n",
        ),
        (false, true) => out.push_str(
            "pseudo-Steiner w.r.t. V1 is tractable (Theorem 4, sides swapped); the V2 side and full Steiner are not guaranteed.\n",
        ),
        (false, false) => out.push_str(
            "outside every tractable class: exact search or heuristics only.\n",
        ),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::BipartiteGraph;

    fn bg(n: usize, edges: &[(usize, usize)]) -> BipartiteGraph {
        BipartiteGraph::from_graph(graph_from_edges(n, edges)).expect("bipartite fixture")
    }

    #[test]
    fn tree_is_everything() {
        let c = classify_bipartite(&bg(4, &[(0, 1), (1, 2), (2, 3)]));
        assert!(c.four_one && c.six_two && c.six_one);
        assert!(c.v1_chordal && c.v1_conformal && c.v2_chordal && c.v2_conformal);
        assert!(c.steiner_polynomial());
        assert!(c.pseudo_steiner_v1_polynomial() && c.pseudo_steiner_v2_polynomial());
    }

    #[test]
    fn c4_is_six_two_but_not_four_one() {
        let c = classify_bipartite(&bg(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]));
        assert!(!c.four_one);
        assert!(c.six_two && c.six_one);
    }

    #[test]
    fn c6_fails_every_chordality_but_keeps_vacuous_vi() {
        let c = classify_bipartite(&bg(
            6,
            &(0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>(),
        ));
        assert!(!c.four_one && !c.six_two && !c.six_one);
        // No cycle of length ≥ 8 exists, so Vi-chordality is vacuous; but
        // conformity fails (three mutually-distance-2 nodes, no witness).
        assert!(c.v1_chordal && c.v2_chordal);
        assert!(!c.v1_conformal && !c.v2_conformal);
        assert!(!c.h1_alpha_acyclic() && !c.h2_alpha_acyclic());
    }

    #[test]
    fn containment_chain_holds_on_examples() {
        // Corollary 2 containments: (4,1) ⟹ (6,2) ⟹ (6,1) ⟹ Vi-ch ∧ Vi-co.
        for (n, edges) in [
            (4usize, vec![(0usize, 1usize), (1, 2), (2, 3)]),
            (4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            (6, {
                let mut e: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
                e.push((1, 4));
                e.push((0, 3));
                e
            }),
        ] {
            let c = classify_bipartite(&bg(n, &edges));
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

    #[test]
    fn explanations_carry_witnesses() {
        // (6,2): a one-liner.
        let good = bg(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(explain_classification(&good).contains("tractable"));
        // (6,1) not (6,2): names the sparse 6-cycle.
        let mut e: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        e.push((1, 4));
        let one_chord = bg(6, &e);
        let text = explain_classification(&one_chord);
        assert!(text.contains("at most one chord"), "{text}");
        // Chordless C6: conformality witnesses on both sides.
        let c6 = bg(6, &(0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        let text = explain_classification(&c6);
        assert!(text.contains("not V2-conformal"), "{text}");
        assert!(text.contains("not V1-conformal"), "{text}");
        assert!(text.contains("outside every tractable class"), "{text}");
    }

    #[test]
    fn display_renders_all_rows() {
        let c = classify_bipartite(&bg(2, &[(0, 1)]));
        let s = c.to_string();
        assert!(s.contains("(6,2)-chordal"));
        assert!(s.contains("pseudo-Steiner(V1)"));
    }
}
