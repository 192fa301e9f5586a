//! # `mcc-chordality` — recognizers for the paper's chordality classes
//!
//! Definitions 4 and 5 of Ausiello–D'Atri–Moscarini introduce, for a
//! bipartite graph `G = (V1, V2, A)`:
//!
//! * **(m,n)-chordality** — every cycle of length ≥ m has ≥ n chords; the
//!   relevant classes are (4,1) (= forests, for bipartite graphs),
//!   (6,2), and (6,1) (= chordal bipartite graphs);
//! * **Vᵢ-chordality** — every cycle of length ≥ 8 admits a *witness*
//!   node `w ∈ Vᵢ` adjacent to two cycle nodes at cycle-distance ≥ 4;
//! * **Vᵢ-conformity** — every set `S ⊆ V_{3-i}` of nodes at mutual
//!   distance 2 has a witness `w ∈ Vᵢ` adjacent to all of `S`.
//!
//! ## A note on the Vᵢ convention
//!
//! The available text of the paper loses the `V₁`/`V₂` subscripts of
//! Definition 5 and Theorem 1(v)–(vi) to OCR noise. The convention used
//! here — *the subscript names the witness side* — is the unique one
//! consistent with the unambiguous statements elsewhere in the paper:
//! Theorem 4 ("V₂-chordal, V₂-conformal" explicitly) together with
//! Lemma 1 (whose elimination ordering ranges over `V₂` nodes, i.e. over
//! the **edges** of `H¹`), Theorem 2's gadget (whose special node
//! `u′ ∈ V₂` contributes the all-covering edge of `H¹`), and the closing
//! CSPC reduction ("G″ is V₂-chordal" when built from a *chordal* source
//! graph, whose primal `G(H¹)` equals that source). Hence:
//!
//! > `G` is **V₂-chordal ∧ V₂-conformal ⟺ `H¹_G` is α-acyclic**, and
//! > `G` is **V₁-chordal ∧ V₁-conformal ⟺ `H²_G` is α-acyclic**.
//!
//! Equivalently (Facts (a)/(b) in the proof of Theorem 1): `G` is
//! V₂-chordal iff the projection of `G` onto `V1` (arcs between
//! `V1`-nodes sharing a `V2`-neighbor — the primal graph of `H¹`) is a
//! chordal graph, and V₂-conformal iff `H¹` is a conformal hypergraph.
//!
//! ## Contents
//!
//! * [`mcs`] — maximum cardinality search, the vertex ordering behind
//!   chordal recognition;
//! * [`peo`] — perfect-elimination-ordering verification;
//! * [`chordal`] — chordal graph recognition (MCS + PEO check);
//! * [`chordal_bipartite`] — (6,1) recognition by bisimplicial-edge
//!   elimination (Golumbic–Goss), graph-native and therefore independent
//!   of the hypergraph-side β-acyclicity recognizer it is tested against;
//! * [`six_two`] — (6,2) recognition: chordal bipartite + a dedicated
//!   6-cycle chord scan (in a chordal bipartite graph every cycle of
//!   length ≥ 8 automatically has ≥ 2 chords — see the module docs);
//! * [`mn_chordal`] — the literal Definition 4 predicate by cycle
//!   enumeration (exponential; ground truth in tests);
//! * [`vi_chordal`] / [`vi_conformal`] — the Definition 5 predicates,
//!   both production (projection/Gilmore) and definitional versions;
//! * [`classify`] — one-call classification of a bipartite graph into
//!   every class the paper studies.

#![forbid(unsafe_code)]

pub mod check;
pub mod chordal;
pub mod chordal_bipartite;
pub mod classify;
pub mod clique_tree;
pub mod mcs;
pub mod mn_chordal;
pub mod peo;
pub mod projection;
pub mod six_two;
pub mod vi_chordal;
pub mod vi_conformal;

pub use check::{check_peo, CHECK_PEO_MAX_NODES};
pub use chordal::{find_chordless_cycle, is_chordal};
pub use chordal_bipartite::{is_chordal_bipartite, is_chordal_bipartite_via_beta};
pub use classify::{classify_bipartite, explain_classification, BipartiteClassification};
pub use clique_tree::{chordal_maximal_cliques, clique_tree};
pub use mcs::mcs_order;
pub use mn_chordal::{is_forest, is_mn_chordal_bruteforce};
pub use peo::is_perfect_elimination_ordering;
pub use projection::project_onto;
pub use six_two::{find_sparse_six_cycle, is_six_two_chordal, is_six_two_chordal_bruteforce};
pub use vi_chordal::{is_vi_chordal, is_vi_chordal_bruteforce};
pub use vi_conformal::{
    find_vi_conformality_violation, is_vi_conformal, is_vi_conformal_bruteforce,
};
