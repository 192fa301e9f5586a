//! Restoring α-acyclicity by adding covering edges.
//!
//! The paper's database motivation prizes acyclic schemas (its reference
//! \[4\] is a *design methodology* for them). When a schema is cyclic, a
//! classical remedy is to add relations that cover the cyclic cores —
//! the hypergraph analogue of triangulating a graph. This module
//! implements the simplest sound repair:
//!
//! 1. run the GYO reduction;
//! 2. if edges survive, add one covering edge per connected component of
//!    the residual (the union of that component's residual edges);
//! 3. repeat — one round always suffices: the added edge contains every
//!    residual edge of its component, so each becomes removable by
//!    containment and the ear rule then unwinds the rest.
//!
//! The suggestion is coarse (one wide relation per cyclic core, the
//! universal-relation hammer) but sound and minimal in *count*; finding
//! minimum-width repairs is NP-hard (it contains treewidth), which is
//! why the module advertises a suggestion, not an optimum.

use crate::{gyo_reduce, is_alpha_acyclic, Hypergraph, HypergraphBuilder};
use mcc_graph::NodeSet;

/// The repair proposal: node sets to add as new edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlphaRepair {
    /// One covering edge per cyclic core, in discovery order.
    pub new_edges: Vec<NodeSet>,
}

impl AlphaRepair {
    /// `true` when the hypergraph needed no repair.
    pub fn is_empty(&self) -> bool {
        self.new_edges.is_empty()
    }
}

/// Computes a covering-edge repair for `h` (empty when `h` is already
/// α-acyclic).
pub fn suggest_alpha_repair(h: &Hypergraph) -> AlphaRepair {
    let outcome = gyo_reduce(h);
    if outcome.acyclic {
        return AlphaRepair { new_edges: vec![] };
    }
    // Group the residual edges into connected components (edges sharing
    // nodes), and cover each component by the union of its edges.
    let residual: Vec<NodeSet> = outcome
        .residual_edges
        .iter()
        .map(|&e| h.edge(e).clone())
        .collect();
    let mut used = vec![false; residual.len()];
    let mut new_edges = Vec::new();
    for i in 0..residual.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        let mut cover = residual[i].clone();
        let mut changed = true;
        while changed {
            changed = false;
            for (j, e) in residual.iter().enumerate() {
                if !used[j] && !e.is_disjoint_from(&cover) {
                    cover.union_with(e);
                    used[j] = true;
                    changed = true;
                }
            }
        }
        new_edges.push(cover);
    }
    AlphaRepair { new_edges }
}

/// Applies a repair: returns `h` plus the suggested edges (labelled
/// `fix1, fix2, …`).
pub fn apply_repair(h: &Hypergraph, repair: &AlphaRepair) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for v in h.nodes() {
        b.add_node(h.node_label(v));
    }
    for e in h.edge_ids() {
        #[expect(
            clippy::expect_used,
            reason = "edges copied from an existing hypergraph are valid and nonempty"
        )]
        b.add_edge(h.edge_label(e), h.edge(e).iter())
            .expect("existing edges valid");
    }
    for (i, e) in repair.new_edges.iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "repair edges are attribute sets the audit verified nonempty"
        )]
        b.add_edge(format!("fix{}", i + 1), e.iter())
            .expect("repair edges nonempty");
    }
    b.build()
}

/// One-call convenience: repair and return the α-acyclic result with the
/// proposal. The result is **guaranteed** α-acyclic (asserted).
pub fn repair_to_alpha(h: &Hypergraph) -> (Hypergraph, AlphaRepair) {
    let repair = suggest_alpha_repair(h);
    let fixed = apply_repair(h, &repair);
    debug_assert!(
        is_alpha_acyclic(&fixed),
        "repair must produce an alpha-acyclic hypergraph"
    );
    (fixed, repair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;

    #[test]
    fn acyclic_needs_no_repair() {
        let h = hypergraph_from_lists(&["a", "b", "c"], &[("x", &[0, 1]), ("y", &[1, 2])]);
        let r = suggest_alpha_repair(&h);
        assert!(r.is_empty());
        let (fixed, _) = repair_to_alpha(&h);
        assert_eq!(fixed.edge_count(), h.edge_count());
    }

    #[test]
    fn triangle_gets_one_covering_edge() {
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
        );
        let (fixed, r) = repair_to_alpha(&h);
        assert_eq!(r.new_edges.len(), 1);
        assert_eq!(r.new_edges[0].len(), 3);
        assert!(is_alpha_acyclic(&fixed));
        assert_eq!(fixed.edge_count(), 4);
        assert!(fixed.edge_by_label("fix1").is_some());
    }

    #[test]
    fn disjoint_cores_get_separate_edges() {
        // Two disjoint triangles.
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d", "e", "f"],
            &[
                ("x1", &[0, 1]),
                ("y1", &[1, 2]),
                ("z1", &[0, 2]),
                ("x2", &[3, 4]),
                ("y2", &[4, 5]),
                ("z2", &[3, 5]),
            ],
        );
        let (fixed, r) = repair_to_alpha(&h);
        assert_eq!(r.new_edges.len(), 2);
        assert!(r.new_edges.iter().all(|e| e.len() == 3));
        assert!(is_alpha_acyclic(&fixed));
    }

    #[test]
    fn partially_acyclic_schema_keeps_its_tail() {
        // A triangle with a pendant chain: only the triangle needs fixing.
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d", "e"],
            &[
                ("x", &[0, 1]),
                ("y", &[1, 2]),
                ("z", &[0, 2]),
                ("tail1", &[2, 3]),
                ("tail2", &[3, 4]),
            ],
        );
        let (fixed, r) = repair_to_alpha(&h);
        assert_eq!(r.new_edges.len(), 1);
        // The repair edge covers the triangle only (the tail GYO-reduces).
        assert_eq!(r.new_edges[0].len(), 3);
        assert!(is_alpha_acyclic(&fixed));
    }

    #[test]
    fn repaired_schema_stays_repaired_under_reapplication() {
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
        );
        let (fixed, _) = repair_to_alpha(&h);
        let second = suggest_alpha_repair(&fixed);
        assert!(second.is_empty());
    }
}
