//! Schema-level artifacts: everything the solver needs that is a pure
//! function of the schema, bundled immutably so it can be computed once
//! and shared (`Arc`) across every query, worker thread, and session.
//!
//! The paper's whole premise is that the hard work is *per schema*, not
//! per query: classification (Theorem 1's recognizers), the Lemma 1
//! ordering behind Algorithm 1 (an `H¹` join tree), and the elimination
//! scan order of Algorithm 2 (any order is good on (6,2)-chordal graphs,
//! Corollary 5) all depend only on the graph. [`SchemaArtifacts`] is that
//! bundle; [`crate::Solver::from_artifacts`] and the `mcc-engine`
//! serving layer consume it so the per-query path runs just the
//! elimination loops (or the exact DP) and nothing else.
//!
//! Classification and the MCS order are built eagerly. The two Lemma 1
//! routes are built on first use — by the first Algorithm 1 solve on
//! that side, or by the store's encoder — and then cached in the bundle,
//! so a schema that is only ever queried for Steiner connections never
//! pays for its join trees.

use crate::{lemma1_ordering, Lemma1Ordering};
use mcc_chordality::{classify_bipartite, mcs_order, BipartiteClassification};
use mcc_graph::{BipartiteGraph, NodeId, Side};
use mcc_hypergraph::JoinTree;
use std::fmt;
use std::sync::OnceLock;

/// A structural defect found while assembling a [`SchemaArtifacts`]
/// bundle from externally supplied parts (a decoded persistence blob).
///
/// [`SchemaArtifacts::from_parts`] never trusts its inputs: a blob that
/// passed every checksum can still be internally inconsistent (a forged
/// or version-skewed writer), and a bundle with an out-of-range ordering
/// would panic deep inside a solver sweep. The checks are cheap —
/// `O(n + m)` scans, never a reclassification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactsError {
    /// Which part of the bundle failed (e.g. `"elimination_order"`).
    pub part: &'static str,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl fmt::Display for ArtifactsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid artifact bundle: {}: {}", self.part, self.reason)
    }
}

impl std::error::Error for ArtifactsError {}

/// The immutable, shareable bundle of per-schema solver artifacts:
///
/// * the CSR bipartite substrate itself;
/// * its [`BipartiteClassification`] (all of Theorem 1's recognizers);
/// * a maximum-cardinality-search elimination order for Algorithm 2
///   (on (6,2)-chordal graphs every order is good — Corollary 5 — so the
///   MCS order is cached once instead of being rebuilt per solve);
/// * on first use, the Lemma 1 ordering (and its join-tree witness)
///   for Algorithm 1 on each side where the graph is Vᵢ-chordal ∧
///   Vᵢ-conformal.
///
/// Cloning is cheap only through `Arc<SchemaArtifacts>` — the bundle
/// itself owns the graph. All accessors are `&self`; the type is `Send +
/// Sync`, so one bundle can back any number of concurrent solvers, and a
/// route built on first use by one of them is seen by all.
#[derive(Debug, Clone)]
pub struct SchemaArtifacts {
    bipartite: BipartiteGraph,
    classification: BipartiteClassification,
    elimination_order: Vec<NodeId>,
    lemma1_v2: OnceLock<Option<Lemma1Ordering>>,
    lemma1_v1: OnceLock<Option<Lemma1Ordering>>,
}

impl SchemaArtifacts {
    /// Classifies `bg` and derives its elimination order. The Lemma 1
    /// routes are left for their first use.
    pub fn build(bg: BipartiteGraph) -> Self {
        let _span = mcc_obs::span!(ArtifactBuild);
        let classification = classify_bipartite(&bg);
        let elimination_order = mcs_order(bg.graph());
        SchemaArtifacts {
            bipartite: bg,
            classification,
            elimination_order,
            lemma1_v2: OnceLock::new(),
            lemma1_v1: OnceLock::new(),
        }
    }

    /// Reassembles a bundle from externally supplied parts — the decode
    /// half of the `mcc-store` persistence round trip — after validating
    /// their structural coherence (see [`ArtifactsError`]). The Lemma 1
    /// routes are set exactly as given: an absent ordering stays absent
    /// and is never rebuilt.
    ///
    /// What is checked (all `O(n + m)`, no recognizer runs):
    ///
    /// * `elimination_order` is a permutation of the graph's nodes;
    /// * the classification respects the Theorem 1 hierarchy
    ///   (4,1) ⊆ (6,2) ⊆ (6,1);
    /// * each Lemma 1 ordering exists only when the classification says
    ///   its route is polynomial, lists distinct nodes of its side, and
    ///   carries a join tree of matching size whose parent pointers
    ///   reference strictly earlier edges.
    ///
    /// What is **not** checked: that the orderings are *the* Lemma
    /// 1/MCS orderings of this graph (that would be a rebuild). A
    /// CRC-valid but semantically wrong blob yields a bundle that
    /// solves suboptimally, not one that panics — and the store's
    /// content addressing (fingerprint keyed, written only by
    /// [`SchemaArtifacts::build`]) is what rules that out in practice.
    pub fn from_parts(
        bipartite: BipartiteGraph,
        classification: BipartiteClassification,
        elimination_order: Vec<NodeId>,
        lemma1_v2: Option<Lemma1Ordering>,
        lemma1_v1: Option<Lemma1Ordering>,
    ) -> Result<Self, ArtifactsError> {
        let err = |part, reason| ArtifactsError { part, reason };
        let n = bipartite.graph().node_count();
        // The elimination order must be a permutation of 0..n.
        if elimination_order.len() != n {
            return Err(err("elimination_order", "length differs from node count"));
        }
        let mut seen = vec![false; n];
        for &v in &elimination_order {
            if v.index() >= n || seen[v.index()] {
                return Err(err("elimination_order", "not a permutation of the nodes"));
            }
            seen[v.index()] = true;
        }
        // Theorem 1 hierarchy: (4,1)-chordal ⊂ (6,2)-chordal ⊂ (6,1).
        if (classification.four_one && !classification.six_two)
            || (classification.six_two && !classification.six_one)
        {
            return Err(err(
                "classification",
                "violates the (4,1)⊆(6,2)⊆(6,1) hierarchy",
            ));
        }
        for (part, side, l1) in [
            ("lemma1_v2", Side::V2, &lemma1_v2),
            ("lemma1_v1", Side::V1, &lemma1_v1),
        ] {
            let Some(l1) = l1 else { continue };
            if !route_polynomial(&classification, side) {
                return Err(err(part, "ordering present but route not polynomial"));
            }
            Self::check_lemma1(l1, &bipartite, side).map_err(|reason| err(part, reason))?;
        }
        Ok(SchemaArtifacts {
            bipartite,
            classification,
            elimination_order,
            lemma1_v2: OnceLock::from(lemma1_v2),
            lemma1_v1: OnceLock::from(lemma1_v1),
        })
    }

    /// Structural sanity of one Lemma 1 ordering against the substrate:
    /// distinct in-range nodes of `side`, a join tree of the same size,
    /// and parent pointers that reference strictly earlier order
    /// positions (the RIP shape).
    fn check_lemma1(
        l1: &Lemma1Ordering,
        bg: &BipartiteGraph,
        side: Side,
    ) -> Result<(), &'static str> {
        let n = bg.graph().node_count();
        let mut seen = vec![false; n];
        for &v in &l1.order {
            if v.index() >= n || seen[v.index()] {
                return Err("order nodes out of range or duplicated");
            }
            if bg.side(v) != side {
                return Err("order contains a node of the other side");
            }
            seen[v.index()] = true;
        }
        let m = l1.join_tree.order.len();
        if l1.join_tree.parent.len() != m || m != l1.order.len() {
            return Err("join tree size disagrees with the ordering");
        }
        let mut pos = vec![usize::MAX; m];
        for (i, e) in l1.join_tree.order.iter().enumerate() {
            if e.index() >= m || pos[e.index()] != usize::MAX {
                return Err("join tree order is not a permutation of its edges");
            }
            pos[e.index()] = i;
        }
        for (i, p) in l1.join_tree.parent.iter().enumerate() {
            if let Some(p) = p {
                if p.index() >= m || pos[p.index()] >= i {
                    return Err("join tree parent is not an earlier edge");
                }
            }
        }
        Ok(())
    }

    /// The bipartite substrate the artifacts describe.
    pub fn bipartite(&self) -> &BipartiteGraph {
        &self.bipartite
    }

    /// The classification computed at build time.
    pub fn classification(&self) -> &BipartiteClassification {
        &self.classification
    }

    /// The cached Algorithm 2 scan order (an MCS order over all nodes).
    pub fn elimination_order(&self) -> &[NodeId] {
        &self.elimination_order
    }

    /// The Lemma 1 ordering for the pseudo-Steiner route minimizing
    /// `side` nodes, when that route is polynomial. The first call per
    /// side builds the ordering; later calls (from any thread) read the
    /// cached one.
    pub fn lemma1(&self, side: Side) -> Option<&Lemma1Ordering> {
        let cell = match side {
            Side::V2 => &self.lemma1_v2,
            Side::V1 => &self.lemma1_v1,
        };
        cell.get_or_init(|| {
            if route_polynomial(&self.classification, side) {
                lemma1_ordering(&self.bipartite, side)
            } else {
                None
            }
        })
        .as_ref()
    }

    /// The `H¹` join tree witnessing α-acyclicity (the Lemma 1
    /// certificate for the `V2` route), when the schema has one.
    pub fn join_tree(&self) -> Option<&JoinTree> {
        self.lemma1(Side::V2).map(|l1| &l1.join_tree)
    }
}

/// Whether Algorithm 1 minimizing `side` is polynomial (and optimal) on
/// a schema of this class.
fn route_polynomial(c: &BipartiteClassification, side: Side) -> bool {
    match side {
        Side::V2 => c.pseudo_steiner_v2_polynomial(),
        Side::V1 => c.pseudo_steiner_v1_polynomial(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_lemma1_ordering;
    use mcc_graph::bipartite::bipartite_from_lists;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn artifacts_are_shareable() {
        assert_send_sync::<SchemaArtifacts>();
        assert_send_sync::<std::sync::Arc<SchemaArtifacts>>();
    }

    #[test]
    fn six_two_schema_gets_every_artifact() {
        // Two overlapping relations: γ-acyclic, hence both pseudo routes
        // and the full Steiner route are polynomial.
        let bg = bipartite_from_lists(
            &["a", "b", "c"],
            &["R1", "R2"],
            &[(0, 0), (1, 0), (1, 1), (2, 1)],
        );
        let a = SchemaArtifacts::build(bg.clone());
        assert!(a.classification().six_two);
        assert_eq!(a.elimination_order().len(), bg.graph().node_count());
        let l1 = a.lemma1(Side::V2).expect("V2 route polynomial");
        assert!(verify_lemma1_ordering(&bg, &l1.order, Side::V2));
        let l1v1 = a.lemma1(Side::V1).expect("V1 route polynomial");
        assert!(verify_lemma1_ordering(&bg, &l1v1.order, Side::V1));
        assert!(a.join_tree().is_some());
    }

    #[test]
    fn from_parts_round_trips_a_built_bundle() {
        let bg = bipartite_from_lists(
            &["a", "b", "c"],
            &["R1", "R2"],
            &[(0, 0), (1, 0), (1, 1), (2, 1)],
        );
        let a = SchemaArtifacts::build(bg);
        let b = SchemaArtifacts::from_parts(
            a.bipartite.clone(),
            a.classification,
            a.elimination_order.clone(),
            a.lemma1(Side::V2).cloned(),
            a.lemma1(Side::V1).cloned(),
        )
        .expect("a built bundle is valid by construction");
        assert_eq!(b.bipartite(), a.bipartite());
        assert_eq!(b.classification(), a.classification());
        assert_eq!(b.elimination_order(), a.elimination_order());
        assert_eq!(
            b.lemma1(Side::V1).map(|l| &l.order),
            a.lemma1(Side::V1).map(|l| &l.order)
        );
    }

    #[test]
    fn lemma1_routes_are_built_on_first_use_and_cached() {
        let bg = bipartite_from_lists(
            &["a", "b", "c"],
            &["R1", "R2"],
            &[(0, 0), (1, 0), (1, 1), (2, 1)],
        );
        let a = SchemaArtifacts::build(bg);
        assert!(a.lemma1_v2.get().is_none() && a.lemma1_v1.get().is_none());
        let first = a.lemma1(Side::V2).expect("V2 route polynomial") as *const _;
        assert!(a.lemma1_v2.get().is_some() && a.lemma1_v1.get().is_none());
        assert_eq!(a.lemma1(Side::V2).map(|l| l as *const _), Some(first));
        // A decoded bundle keeps exactly the routes it was given.
        let b = SchemaArtifacts::from_parts(
            a.bipartite.clone(),
            a.classification,
            a.elimination_order.clone(),
            None,
            None,
        )
        .expect("absent orderings are allowed");
        assert!(b.lemma1(Side::V2).is_none());
        assert!(b.lemma1(Side::V1).is_none());
    }

    #[test]
    fn from_parts_rejects_incoherent_bundles() {
        let bg = bipartite_from_lists(
            &["a", "b", "c"],
            &["R1", "R2"],
            &[(0, 0), (1, 0), (1, 1), (2, 1)],
        );
        let a = SchemaArtifacts::build(bg);
        // Truncated elimination order.
        let short = a.elimination_order[..3].to_vec();
        let e =
            SchemaArtifacts::from_parts(a.bipartite.clone(), a.classification, short, None, None)
                .unwrap_err();
        assert_eq!(e.part, "elimination_order");
        // Duplicated entry.
        let mut dup = a.elimination_order.clone();
        dup[0] = dup[1];
        assert!(SchemaArtifacts::from_parts(
            a.bipartite.clone(),
            a.classification,
            dup,
            None,
            None
        )
        .is_err());
        // Hierarchy violation: (4,1) without (6,2).
        let mut cls = a.classification;
        cls.four_one = true;
        cls.six_two = false;
        assert!(SchemaArtifacts::from_parts(
            a.bipartite.clone(),
            cls,
            a.elimination_order.clone(),
            None,
            None
        )
        .is_err());
        // Each side's ordering is checked against its own side: the
        // orderings swapped between the routes are rejected.
        let e = SchemaArtifacts::from_parts(
            a.bipartite.clone(),
            a.classification,
            a.elimination_order.clone(),
            a.lemma1(Side::V1).cloned(),
            a.lemma1(Side::V2).cloned(),
        )
        .unwrap_err();
        assert_eq!(e.part, "lemma1_v2");
    }

    #[test]
    fn off_class_schema_has_no_orderings() {
        // Chordless C6: outside every tractable class.
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        let a = SchemaArtifacts::build(bg);
        assert!(!a.classification().six_two);
        assert!(a.lemma1(Side::V2).is_none());
        assert!(a.lemma1(Side::V1).is_none());
        assert!(a.join_tree().is_none());
        // The scan order is still cached (Algorithm 2 off-class is the
        // e8 heuristic experiment, not a solver route, but the order is
        // a pure function of the graph either way).
        assert_eq!(a.elimination_order().len(), 6);
    }
}
