//! Debug-build correctness certificate for join trees.
//!
//! [`check_join_tree`] validates a [`JoinTree`] against the **pairwise**
//! join-tree definition — for every two hyperedges, their intersection
//! is contained in every edge on the tree path between them — rather
//! than the incremental running-intersection form that
//! [`JoinTree::is_valid`] and the production constructions use. The two
//! formulations are equivalent for genuine join trees, so cross-checking
//! them in `debug_assert!` at the construction exits catches a bug in
//! either one.

use crate::join_tree::JoinTree;
use crate::Hypergraph;

/// Largest hypergraph (edge count) the pairwise join-tree re-check runs
/// on; callers skip the certificate above this (the check is `O(m² d n)`
/// for tree depth `d` and exists for debug cross-validation).
pub const CHECK_JOIN_TREE_MAX_EDGES: usize = 96;

/// Pairwise-definition join-tree check: `jt.order` is a permutation of
/// the edges of `h`, every parent pointer names a strictly earlier edge
/// (so the pointers form a forest), and for every pair of edges `e, f`
/// their intersection is contained in **every** edge on the forest path
/// between them — with edges in different forest components required to
/// be disjoint (a shared node with no connecting path would break the
/// connectedness half of the join-tree property).
pub fn check_join_tree(h: &Hypergraph, jt: &JoinTree) -> bool {
    let m = h.edge_count();
    if jt.order.len() != m || jt.parent.len() != m {
        return false;
    }
    // Position of each edge id in the ordering; also the permutation check.
    let mut pos = vec![usize::MAX; m];
    for (i, &e) in jt.order.iter().enumerate() {
        if e.index() >= m || pos[e.index()] != usize::MAX {
            return false;
        }
        pos[e.index()] = i;
    }
    // Parent pointers in order-index space; "strictly earlier" makes the
    // structure acyclic, hence a forest.
    let mut parent_pos: Vec<Option<usize>> = vec![None; m];
    for (i, p) in jt.parent.iter().enumerate() {
        if let Some(p) = p {
            if p.index() >= m {
                return false;
            }
            let pp = pos[p.index()];
            if pp >= i {
                return false;
            }
            parent_pos[i] = Some(pp);
        }
    }
    // Ancestor chain (inclusive) of an order index, root last.
    let chain = |mut i: usize| -> Vec<usize> {
        let mut out = vec![i];
        while let Some(j) = parent_pos[i] {
            out.push(j);
            i = j;
        }
        out
    };
    for i in 0..m {
        let chain_i = chain(i);
        for j in (i + 1)..m {
            let inter = h.edge(jt.order[i]).intersection(h.edge(jt.order[j]));
            if inter.is_empty() {
                continue;
            }
            // Walk up from j until meeting an ancestor of i (the LCA);
            // hitting a root first means separate components.
            let mut walk = j;
            let lca = loop {
                if let Some(k) = chain_i.iter().position(|&a| a == walk) {
                    break Some(k);
                }
                match parent_pos[walk] {
                    Some(up) => {
                        if !inter.is_subset_of(h.edge(jt.order[walk])) {
                            return false;
                        }
                        walk = up;
                    }
                    None => break None, // reached a root without meeting i's chain
                }
            };
            let Some(k) = lca else {
                // Different components but intersecting edges.
                return false;
            };
            // The LCA itself plus i's side of the path.
            for &a in &chain_i[..=k] {
                if !inter.is_subset_of(h.edge(jt.order[a])) {
                    return false;
                }
            }
            // j's side was checked during the walk, except `walk == j`
            // itself (trivially a superset of the intersection).
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;
    use crate::join_tree::join_tree;

    #[test]
    fn accepts_production_join_trees() {
        let chain = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[2, 3])],
        );
        let jt = join_tree(&chain).unwrap();
        assert!(check_join_tree(&chain, &jt));

        let star = hypergraph_from_lists(
            &["a", "b", "c", "x1", "x2"],
            &[("center", &[0, 1, 2]), ("p1", &[0, 3]), ("p2", &[1, 4])],
        );
        let jt = join_tree(&star).unwrap();
        assert!(check_join_tree(&star, &jt));
    }

    #[test]
    fn rejects_broken_parent_pointer() {
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[2, 3])],
        );
        let jt = join_tree(&h).unwrap();
        // Reparent the last edge onto the first: the middle edge is no
        // longer on the path between overlapping neighbors.
        let mut bad = jt.clone();
        let last = bad.order.len() - 1;
        if bad.parent[last] != Some(bad.order[0]) {
            bad.parent[last] = Some(bad.order[0]);
            assert!(!check_join_tree(&h, &bad));
        }
        // Orphaning an overlapping edge breaks connectedness.
        let mut orphan = jt.clone();
        orphan.parent[last] = None;
        assert!(!check_join_tree(&h, &orphan));
    }

    #[test]
    fn rejects_shape_violations() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0, 1]), ("y", &[0, 1])]);
        let jt = join_tree(&h).unwrap();
        let mut short = jt.clone();
        short.order.pop();
        short.parent.pop();
        assert!(!check_join_tree(&h, &short));
        let mut dup = jt.clone();
        dup.order[1] = dup.order[0];
        assert!(!check_join_tree(&h, &dup));
        // A parent pointing forward in the order is not a forest.
        let mut fwd = jt;
        fwd.parent[0] = Some(fwd.order[1]);
        fwd.parent[1] = None;
        assert!(!check_join_tree(&h, &fwd));
    }
}
