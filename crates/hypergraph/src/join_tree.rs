//! Edge orderings with the running intersection property, join trees, and
//! the Tarjan–Yannakakis maximum cardinality search.
//!
//! The proof of the paper's Theorem 4 rests on Tarjan–Yannakakis'
//! *(restricted) maximum cardinality search*: for a connected α-acyclic
//! hypergraph it orders the edges so that each prefix is connected and
//! every edge's intersection with the union of its predecessors lies
//! inside a single predecessor (the **running intersection property**,
//! RIP). Reversing such an ordering yields exactly the `V2`-elimination
//! ordering of Lemma 1 that drives Algorithm 1.
//!
//! Two constructions are provided:
//!
//! * [`mcs_edge_ordering`] — greedy maximum-cardinality selection (the
//!   TY ordering; linear-ish, used on large generated workloads);
//! * an ear-decomposition construction used as a fallback inside
//!   [`running_intersection_ordering`] — unconditionally correct, `O(m³)`.
//!
//! [`running_intersection_ordering`] first verifies the MCS ordering and
//! falls back to ears; it returns `None` exactly when the hypergraph is
//! not α-acyclic. Tests assert the MCS path never needs the fallback on
//! α-acyclic inputs (an empirical check of TY's Theorem 5 as cited by the
//! paper).

use crate::{EdgeId, Hypergraph};
use mcc_graph::NodeSet;

/// An edge ordering with RIP witnesses, i.e. a join tree in parent-pointer
/// form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    /// Edges in a running-intersection order (parents before children).
    pub order: Vec<EdgeId>,
    /// `parent[i]` is the RIP witness of `order[i]`: an earlier edge
    /// containing `order[i] ∩ (order[0] ∪ … ∪ order[i-1])`. `None` for
    /// roots (the first edge of each connected component).
    pub parent: Vec<Option<EdgeId>>,
}

impl JoinTree {
    /// Validates the defining property of a join tree: for every pair of
    /// edges, their intersection is contained in every edge on the tree
    /// path between them. `O(m² n)`-ish; meant for tests.
    pub fn is_valid(&self, h: &Hypergraph) -> bool {
        if self.order.len() != h.edge_count() || self.parent.len() != self.order.len() {
            return false;
        }
        let pos: std::collections::HashMap<EdgeId, usize> = self
            .order
            .iter()
            .copied()
            .enumerate()
            .map(|(i, e)| (e, i))
            .collect();
        if pos.len() != self.order.len() {
            return false; // duplicates in order
        }
        // Check the RIP form directly: e_i ∩ (∪_{k<i} e_k) ⊆ parent(e_i).
        let mut union = NodeSet::new(h.node_count());
        for (i, &e) in self.order.iter().enumerate() {
            let inter = h.edge(e).intersection(&union);
            match self.parent[i] {
                Some(p) => {
                    let Some(&pi) = pos.get(&p) else { return false };
                    if pi >= i || !inter.is_subset_of(h.edge(p)) {
                        return false;
                    }
                }
                None => {
                    if !inter.is_empty() {
                        return false;
                    }
                }
            }
            union.union_with(h.edge(e));
        }
        true
    }
}

/// The Tarjan–Yannakakis maximum-cardinality edge ordering: repeatedly
/// select the edge containing the largest number of already-selected
/// nodes (ties toward the smallest id; a zero-weight pick starts a new
/// connected component).
///
/// For α-acyclic hypergraphs this ordering satisfies RIP (TY, Theorem 5 as
/// quoted in the paper); for cyclic ones it merely is *some* ordering —
/// [`verify_rip`] tells the difference.
pub fn mcs_edge_ordering(h: &Hypergraph) -> Vec<EdgeId> {
    let m = h.edge_count();
    let mut selected_nodes = NodeSet::new(h.node_count());
    let mut used = vec![false; m];
    let mut order = Vec::with_capacity(m);
    for _ in 0..m {
        let mut best: Option<(usize, usize)> = None; // (weight, index)
        for (i, &done) in used.iter().enumerate() {
            if done {
                continue;
            }
            let w = h
                .edge(EdgeId::from_index(i))
                .intersection(&selected_nodes)
                .len();
            if best.map_or(true, |(bw, _)| w > bw) {
                best = Some((w, i));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the outer loop runs while an unused edge remains, so the scan finds one"
        )]
        let (_, i) = best.expect("an unused edge remains");
        used[i] = true;
        let e = EdgeId::from_index(i);
        selected_nodes.union_with(h.edge(e));
        order.push(e);
    }
    order
}

/// Verifies the running intersection property of `order`, returning the
/// parent witnesses when it holds.
pub fn verify_rip(h: &Hypergraph, order: &[EdgeId]) -> Option<Vec<Option<EdgeId>>> {
    let mut union = NodeSet::new(h.node_count());
    let mut parents = Vec::with_capacity(order.len());
    for (i, &e) in order.iter().enumerate() {
        let inter = h.edge(e).intersection(&union);
        if inter.is_empty() {
            parents.push(None);
        } else {
            // Prefer the latest witness, matching the TY statement quoted
            // in the paper ("j is the maximum k").
            let witness = order[..i]
                .iter()
                .rev()
                .find(|&&p| inter.is_subset_of(h.edge(p)))
                .copied();
            match witness {
                Some(p) => parents.push(Some(p)),
                None => return None,
            }
        }
        union.union_with(h.edge(e));
    }
    Some(parents)
}

/// An RIP ordering via ear decomposition: repeatedly remove an edge whose
/// intersection with the union of the *other* remaining edges lies inside
/// a single remaining edge, and prepend it. Correct for every α-acyclic
/// hypergraph; returns `None` otherwise. `O(m³)` set operations.
pub fn ear_ordering(h: &Hypergraph) -> Option<JoinTree> {
    let m = h.edge_count();
    let mut alive: Vec<bool> = vec![true; m];
    let mut rev_order: Vec<EdgeId> = Vec::with_capacity(m);
    let mut rev_parent: Vec<Option<EdgeId>> = Vec::with_capacity(m);
    let mut remaining = m;
    while remaining > 0 {
        let mut found = false;
        'scan: for i in 0..m {
            if !alive[i] {
                continue;
            }
            let e = EdgeId::from_index(i);
            // Union of the other alive edges restricted to e.
            let mut inter = NodeSet::new(h.node_count());
            for (j, &live) in alive.iter().enumerate() {
                if j != i && live {
                    inter.union_with(&h.edge(EdgeId::from_index(j)).intersection(h.edge(e)));
                }
            }
            if inter.is_empty() {
                alive[i] = false;
                remaining -= 1;
                rev_order.push(e);
                rev_parent.push(None);
                found = true;
                break 'scan;
            }
            for j in 0..m {
                if j != i && alive[j] && inter.is_subset_of(h.edge(EdgeId::from_index(j))) {
                    alive[i] = false;
                    remaining -= 1;
                    rev_order.push(e);
                    rev_parent.push(Some(EdgeId::from_index(j)));
                    found = true;
                    break 'scan;
                }
            }
        }
        if !found {
            return None;
        }
    }
    rev_order.reverse();
    rev_parent.reverse();
    Some(JoinTree {
        order: rev_order,
        parent: rev_parent,
    })
}

/// Computes an RIP edge ordering (with witnesses) or determines that none
/// exists — i.e. decides α-acyclicity constructively.
///
/// Strategy: try the fast MCS ordering and verify it; fall back to the
/// `O(m³)` ear decomposition. The fallback is a safety net: per the TY
/// theorem the MCS ordering already satisfies RIP whenever the hypergraph
/// is α-acyclic (tests measure that the fallback is never the one to
/// succeed).
pub fn running_intersection_ordering(h: &Hypergraph) -> Option<JoinTree> {
    let order = mcs_edge_ordering(h);
    let jt = if let Some(parent) = verify_rip(h, &order) {
        JoinTree { order, parent }
    } else {
        ear_ordering(h)?
    };
    // Certificate (debug builds only): the incremental RIP construction
    // must satisfy the pairwise join-tree definition.
    debug_assert!(
        h.edge_count() > crate::check::CHECK_JOIN_TREE_MAX_EDGES
            || crate::check::check_join_tree(h, &jt),
        "constructed join tree violates the pairwise join-tree property"
    );
    Some(jt)
}

/// Alias with the join-tree reading of the result.
pub fn join_tree(h: &Hypergraph) -> Option<JoinTree> {
    running_intersection_ordering(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;

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

    #[test]
    fn mcs_orders_all_edges() {
        let h = chain();
        let order = mcs_edge_ordering(&h);
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn chain_has_rip_ordering() {
        let h = chain();
        let jt = running_intersection_ordering(&h).expect("chain is alpha-acyclic");
        assert!(jt.is_valid(&h));
        assert!(verify_rip(&h, &jt.order).is_some());
    }

    #[test]
    fn triangle_has_no_rip_ordering() {
        let h = triangle();
        assert!(running_intersection_ordering(&h).is_none());
        assert!(ear_ordering(&h).is_none());
    }

    #[test]
    fn ear_ordering_matches_mcs_verdict() {
        for h in [chain(), triangle()] {
            let via_mcs = verify_rip(&h, &mcs_edge_ordering(&h)).is_some();
            let via_ears = ear_ordering(&h).is_some();
            assert_eq!(via_mcs, via_ears, "disagreement on {h:?}");
        }
    }

    #[test]
    fn disconnected_acyclic_hypergraph_ok() {
        let h = hypergraph_from_lists(&["a", "b", "c", "d"], &[("x", &[0, 1]), ("y", &[2, 3])]);
        let jt = running_intersection_ordering(&h).expect("two components, both trivial");
        assert!(jt.is_valid(&h));
        // Both edges are roots (disjoint).
        assert_eq!(jt.parent.iter().filter(|p| p.is_none()).count(), 2);
    }

    #[test]
    fn duplicate_edges_have_rip() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0, 1]), ("y", &[0, 1])]);
        let jt = running_intersection_ordering(&h).expect("duplicates are acyclic");
        assert!(jt.is_valid(&h));
        assert_eq!(jt.parent[1], Some(jt.order[0]));
    }

    #[test]
    fn join_tree_validation_rejects_bogus() {
        let h = chain();
        let jt = running_intersection_ordering(&h).unwrap();
        // Break the parent pointer.
        let mut bad = jt.clone();
        if bad.parent[1].is_some() {
            bad.parent[1] = None;
            assert!(!bad.is_valid(&h));
        }
        // Wrong length.
        let mut short = jt.clone();
        short.order.pop();
        short.parent.pop();
        assert!(!short.is_valid(&h));
    }

    #[test]
    fn empty_hypergraph_has_empty_join_tree() {
        let h = hypergraph_from_lists(&["a"], &[]);
        let jt = running_intersection_ordering(&h).unwrap();
        assert!(jt.order.is_empty());
        assert!(jt.is_valid(&h));
    }

    #[test]
    fn star_hypergraph_rip() {
        // Center edge {a,b,c,d}, petals {a,x1}, {b,x2}, {c,x3}.
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d", "x1", "x2", "x3"],
            &[
                ("center", &[0, 1, 2, 3]),
                ("p1", &[0, 4]),
                ("p2", &[1, 5]),
                ("p3", &[2, 6]),
            ],
        );
        let jt = running_intersection_ordering(&h).expect("star is acyclic");
        assert!(jt.is_valid(&h));
    }
}
