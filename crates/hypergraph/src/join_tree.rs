//! Join trees: edge orderings with the running intersection property,
//! built by the Tarjan–Yannakakis maximum cardinality search.
//!
//! The proof of the paper's Theorem 4 rests on Tarjan–Yannakakis'
//! *(restricted) maximum cardinality search*: for a connected α-acyclic
//! hypergraph it orders the edges so that each prefix is connected and
//! every edge's intersection with the union of its predecessors lies
//! inside a single predecessor (the **running intersection property**,
//! RIP). Reversing such an ordering yields exactly the `V2`-elimination
//! ordering of Lemma 1 that drives Algorithm 1.
//!
//! [`join_tree`] is the one construction: it selects edges by maximum
//! cardinality and finds each edge's RIP parent as it is selected. By
//! the TY theorem the paper cites as reference \[12\], the MCS order has
//! RIP exactly when the hypergraph is α-acyclic, so the first edge
//! without a parent proves the hypergraph cyclic and the pass returns
//! `None` there. The GYO reduction ([`crate::gyo_reduce`]) is the
//! independent oracle it is held to in tests.

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

/// The join tree of `h` by the Tarjan–Yannakakis maximum cardinality
/// search, or `None` when `h` is not α-acyclic.
///
/// Repeatedly selects the unused edge containing the most
/// already-selected nodes (ties toward the smallest id; a zero-weight
/// pick starts a new connected component, as a root). Each selected
/// edge's parent is the latest earlier edge containing its intersection
/// with the union so far, matching the TY statement quoted in the paper
/// ("j is the maximum k"); the first edge with no such edge ends the
/// pass with `None`.
pub fn join_tree(h: &Hypergraph) -> Option<JoinTree> {
    let m = h.edge_count();
    let mut union = NodeSet::new(h.node_count());
    let mut used = vec![false; m];
    let mut order = Vec::with_capacity(m);
    let mut parent = Vec::with_capacity(m);
    for _ in 0..m {
        let mut best: Option<(usize, usize)> = None; // (weight, index)
        for (i, &done) in used.iter().enumerate() {
            if done {
                continue;
            }
            let w = h.edge(EdgeId::from_index(i)).intersection(&union).len();
            if best.map_or(true, |(bw, _)| w > bw) {
                best = Some((w, i));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the outer loop runs while an unused edge remains, so the scan finds one"
        )]
        let (w, i) = best.expect("an unused edge remains");
        used[i] = true;
        let e = EdgeId::from_index(i);
        let p = if w == 0 {
            None
        } else {
            let inter = h.edge(e).intersection(&union);
            Some(
                *order
                    .iter()
                    .rev()
                    .find(|&&p| inter.is_subset_of(h.edge(p)))?,
            )
        };
        union.union_with(h.edge(e));
        order.push(e);
        parent.push(p);
    }
    let jt = JoinTree { order, parent };
    // Certificate (debug builds only): the incremental RIP construction
    // must satisfy the pairwise join-tree definition.
    debug_assert!(
        m > crate::check::CHECK_JOIN_TREE_MAX_EDGES || crate::check::check_join_tree(h, &jt),
        "constructed join tree violates the pairwise join-tree property"
    );
    Some(jt)
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
        let order = join_tree(&h).expect("chain is alpha-acyclic").order;
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn chain_has_rip_ordering() {
        let h = chain();
        let jt = join_tree(&h).expect("chain is alpha-acyclic");
        assert!(jt.is_valid(&h));
        assert_eq!(jt.parent[0], None);
        assert!(jt.parent[1..].iter().all(Option::is_some));
    }

    #[test]
    fn triangle_has_no_rip_ordering() {
        let h = triangle();
        assert!(join_tree(&h).is_none());
    }

    #[test]
    fn disconnected_acyclic_hypergraph_ok() {
        let h = hypergraph_from_lists(&["a", "b", "c", "d"], &[("x", &[0, 1]), ("y", &[2, 3])]);
        let jt = join_tree(&h).expect("two components, both trivial");
        assert!(jt.is_valid(&h));
        // Both edges are roots (disjoint).
        assert_eq!(jt.parent.iter().filter(|p| p.is_none()).count(), 2);
    }

    #[test]
    fn duplicate_edges_have_rip() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0, 1]), ("y", &[0, 1])]);
        let jt = join_tree(&h).expect("duplicates are acyclic");
        assert!(jt.is_valid(&h));
        assert_eq!(jt.parent[1], Some(jt.order[0]));
    }

    #[test]
    fn join_tree_validation_rejects_bogus() {
        let h = chain();
        let jt = join_tree(&h).unwrap();
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
        let jt = join_tree(&h).unwrap();
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
        let jt = join_tree(&h).expect("star is acyclic");
        assert!(jt.is_valid(&h));
    }
}
