//! Efficient recognizers for the acyclicity hierarchy
//! Berge ⊂ γ ⊂ β ⊂ α (Definitions 6 and 7).
//!
//! | Degree | Recognizer | Ground truth (tests) |
//! |---|---|---|
//! | Berge | incidence forest test ([`crate::berge`]) | Berge-cycle finder |
//! | γ | β-acyclic **and** no special 3-edge γ-cycle | γ-cycle finder |
//! | β | nest-point elimination | β-cycle finder; "every partial hypergraph α-acyclic" |
//! | α | Tarjan–Yannakakis MCS join tree ([`crate::join_tree`](mod@crate::join_tree)) | GYO reduction |
//!
//! The special 3-cycle scan follows directly from Definition 6: a γ-cycle
//! that is not a β-cycle is a cycle `(e1, e2, e3)` with `n1 ∉ e3` and
//! `n3 ∉ e2`, which exists iff there are distinct edges with
//! `(e1∩e2)\e3 ≠ ∅`, `(e1∩e3)\e2 ≠ ∅`, and `e2∩e3 ≠ ∅` (the middle node
//! `n2` is then automatically distinct from `n1` and `n3`).

use crate::{is_berge_acyclic, join_tree, EdgeId, Hypergraph};
use mcc_graph::NodeId;

/// The strongest acyclicity degree a hypergraph satisfies.
///
/// The classes are nested (Berge ⊂ γ ⊂ β ⊂ α, Fagin), so reporting the
/// strongest degree fully describes membership in all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AcyclicityDegree {
    /// Not even α-acyclic.
    Cyclic,
    /// α-acyclic but not β-acyclic.
    Alpha,
    /// β-acyclic but not γ-acyclic.
    Beta,
    /// γ-acyclic but not Berge-acyclic.
    Gamma,
    /// Berge-acyclic (the strongest degree).
    Berge,
}

impl AcyclicityDegree {
    /// Classifies `h` by its strongest degree.
    ///
    /// ```
    /// use mcc_hypergraph::{builder::hypergraph_from_lists, AcyclicityDegree};
    ///
    /// // The cyclic triangle of pair-edges…
    /// let t = hypergraph_from_lists(
    ///     &["a", "b", "c"],
    ///     &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
    /// );
    /// assert_eq!(AcyclicityDegree::of(&t), AcyclicityDegree::Cyclic);
    /// // …becomes α-acyclic once covered (Fagin's classic example).
    /// let c = hypergraph_from_lists(
    ///     &["a", "b", "c"],
    ///     &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2]), ("w", &[0, 1, 2])],
    /// );
    /// assert_eq!(AcyclicityDegree::of(&c), AcyclicityDegree::Alpha);
    /// ```
    pub fn of(h: &Hypergraph) -> AcyclicityDegree {
        if is_berge_acyclic(h) {
            AcyclicityDegree::Berge
        } else if is_gamma_acyclic(h) {
            AcyclicityDegree::Gamma
        } else if is_beta_acyclic(h) {
            AcyclicityDegree::Beta
        } else if is_alpha_acyclic(h) {
            AcyclicityDegree::Alpha
        } else {
            AcyclicityDegree::Cyclic
        }
    }

    /// `true` when this degree implies `other` (degrees are nested).
    pub fn implies(self, other: AcyclicityDegree) -> bool {
        self >= other
    }
}

/// α-acyclicity via the Tarjan–Yannakakis maximum-cardinality-search
/// join tree; see [`crate::join_tree`](mod@crate::join_tree).
/// Cross-checked against GYO in tests.
pub fn is_alpha_acyclic(h: &Hypergraph) -> bool {
    join_tree(h).is_some()
}

/// β-acyclicity via nest-point elimination.
///
/// A node is a **nest point** when the edges containing it form a chain
/// under inclusion. A hypergraph is β-acyclic iff repeatedly removing nest
/// points (deleting the node from every edge, dropping emptied edges)
/// eliminates every non-isolated node. `O(n² · m²)` worst case with the
/// simple rescan below.
pub fn is_beta_acyclic(h: &Hypergraph) -> bool {
    let mut cur = h.clone();
    loop {
        if cur.covered_nodes().is_empty() {
            return true;
        }
        match find_nest_point(&cur) {
            Some(v) => cur = cur.remove_node(v),
            None => return false,
        }
    }
}

/// Finds a nest point of `h`, if any.
pub fn find_nest_point(h: &Hypergraph) -> Option<NodeId> {
    h.nodes()
        .find(|&v| !h.is_isolated(v) && is_nest_point(h, v))
}

/// `true` iff the edges containing `v` form an inclusion chain.
pub fn is_nest_point(h: &Hypergraph, v: NodeId) -> bool {
    let edges = h.edges_containing(v);
    // Sort by size; a family is a chain iff each member contains the
    // previous when ordered by cardinality.
    let mut by_size: Vec<EdgeId> = edges.to_vec();
    by_size.sort_by_key(|&e| h.edge(e).len());
    by_size
        .windows(2)
        .all(|w| h.edge(w[0]).is_subset_of(h.edge(w[1])))
}

/// γ-acyclicity: no β-cycle and no special 3-edge γ-cycle (Definition 6).
pub fn is_gamma_acyclic(h: &Hypergraph) -> bool {
    is_beta_acyclic(h) && !has_special_gamma_triple(h)
}

/// Scans for the 3-edge γ-cycle pattern: distinct edges `e1, e2, e3` with
/// `(e1∩e2)\e3 ≠ ∅`, `(e1∩e3)\e2 ≠ ∅`, and `e2∩e3 ≠ ∅`.
pub fn has_special_gamma_triple(h: &Hypergraph) -> bool {
    let m = h.edge_count();
    for i in 0..m {
        let e1 = h.edge(EdgeId::from_index(i));
        for j in 0..m {
            if j == i {
                continue;
            }
            let e2 = h.edge(EdgeId::from_index(j));
            let i12 = e1.intersection(e2);
            if i12.is_empty() {
                continue;
            }
            for k in (j + 1)..m {
                // e2 and e3 play symmetric roles in the condition's last
                // clause but asymmetric in the first two; sweeping ordered
                // (j, k) pairs with k > j and also testing the swapped
                // roles keeps the loop O(m³)/2.
                if k == i {
                    continue;
                }
                let e3 = h.edge(EdgeId::from_index(k));
                if e2.is_disjoint_from(e3) {
                    continue;
                }
                let mut a = i12.clone();
                a.difference_with(e3); // (e1∩e2)\e3
                let mut b = e1.intersection(e3);
                b.difference_with(e2); // (e1∩e3)\e2
                if !a.is_empty() && !b.is_empty() {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;
    use crate::gyo::gyo_reduce;
    use crate::{find_beta_cycle, find_gamma_cycle};

    fn chain() -> Hypergraph {
        hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[2, 3])],
        )
    }

    fn triangle() -> Hypergraph {
        hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
        )
    }

    fn covered_triangle() -> Hypergraph {
        hypergraph_from_lists(
            &["a", "b", "c"],
            &[
                ("x", &[0, 1]),
                ("y", &[1, 2]),
                ("z", &[0, 2]),
                ("w", &[0, 1, 2]),
            ],
        )
    }

    #[test]
    fn chain_is_berge_acyclic() {
        // Adjacent pair-edges share single nodes: a Berge cycle needs two
        // shared nodes or a longer loop — a path has neither.
        let h = chain();
        assert_eq!(AcyclicityDegree::of(&h), AcyclicityDegree::Berge);
    }

    #[test]
    fn shared_pair_is_gamma_not_berge() {
        // Two edges sharing two nodes: Berge-cyclic, but γ-acyclic.
        let h = hypergraph_from_lists(&["a", "b", "c"], &[("x", &[0, 1]), ("y", &[0, 1, 2])]);
        assert!(!is_berge_acyclic(&h));
        assert!(is_gamma_acyclic(&h));
        assert_eq!(AcyclicityDegree::of(&h), AcyclicityDegree::Gamma);
    }

    #[test]
    fn special_triple_is_beta_not_gamma() {
        // e1={a,b,d}, e2={a,d}, e3={b,d}: β-acyclic but γ-cyclic (the
        // special 3-cycle) — mirrors the berge.rs ground-truth test.
        let h = hypergraph_from_lists(
            &["a", "b", "d"],
            &[("e1", &[0, 1, 2]), ("e2", &[0, 2]), ("e3", &[1, 2])],
        );
        assert!(is_beta_acyclic(&h));
        assert!(!is_gamma_acyclic(&h));
        assert!(find_beta_cycle(&h).is_none());
        assert!(find_gamma_cycle(&h).is_some());
        assert_eq!(AcyclicityDegree::of(&h), AcyclicityDegree::Beta);
    }

    #[test]
    fn covered_triangle_is_alpha_not_beta() {
        let h = covered_triangle();
        assert!(is_alpha_acyclic(&h));
        assert!(gyo_reduce(&h).acyclic);
        assert!(!is_beta_acyclic(&h));
        assert!(find_beta_cycle(&h).is_some());
        assert_eq!(AcyclicityDegree::of(&h), AcyclicityDegree::Alpha);
    }

    #[test]
    fn triangle_is_cyclic() {
        let h = triangle();
        assert!(!is_alpha_acyclic(&h));
        assert!(!gyo_reduce(&h).acyclic);
        assert_eq!(AcyclicityDegree::of(&h), AcyclicityDegree::Cyclic);
    }

    #[test]
    fn degrees_are_ordered_and_imply() {
        assert!(AcyclicityDegree::Berge.implies(AcyclicityDegree::Alpha));
        assert!(AcyclicityDegree::Gamma.implies(AcyclicityDegree::Beta));
        assert!(!AcyclicityDegree::Alpha.implies(AcyclicityDegree::Beta));
        assert!(AcyclicityDegree::Cyclic < AcyclicityDegree::Alpha);
    }

    #[test]
    fn beta_matches_every_partial_alpha_on_small_cases() {
        // β-acyclic ⟺ every partial hypergraph α-acyclic (Fagin).
        for h in [chain(), triangle(), covered_triangle()] {
            let m = h.edge_count();
            let mut all_alpha = true;
            for mask in 0u32..(1 << m) {
                let keep: Vec<EdgeId> = (0..m)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(EdgeId::from_index)
                    .collect();
                if !is_alpha_acyclic(&h.partial(&keep)) {
                    all_alpha = false;
                    break;
                }
            }
            assert_eq!(is_beta_acyclic(&h), all_alpha, "mismatch for {h:?}");
        }
    }

    #[test]
    fn nest_point_detection() {
        // b's edges: {a,b} ⊆ {a,b,c}: chain → nest point.
        let h = hypergraph_from_lists(&["a", "b", "c"], &[("x", &[0, 1]), ("y", &[0, 1, 2])]);
        assert!(is_nest_point(&h, NodeId(1)));
        // In the triangle, no node is a nest point.
        let t = triangle();
        assert_eq!(find_nest_point(&t), None);
    }

    #[test]
    fn empty_hypergraph_is_everything() {
        let h = hypergraph_from_lists(&["a"], &[]);
        assert_eq!(AcyclicityDegree::of(&h), AcyclicityDegree::Berge);
        assert!(is_beta_acyclic(&h));
        assert!(is_gamma_acyclic(&h));
        assert!(is_alpha_acyclic(&h));
    }
}
