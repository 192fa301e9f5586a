//! Debug-build correctness certificates for the chordality recognizers.
//!
//! [`check_peo`] re-verifies a claimed perfect elimination ordering
//! straight from the definition — all pairs of later neighbors tested for
//! adjacency — independently of the deferred Golumbic check the
//! production recognizer uses
//! ([`crate::is_perfect_elimination_ordering`]). The recognizers call
//! it through `debug_assert!`, so the cross-check runs on every debug
//! test execution and costs nothing in release builds.

use mcc_graph::{Adjacency, NodeId};

/// Largest graph the definitional PEO re-check runs on; above this the
/// callers skip the certificate (the naive check is quadratic in the
/// neighborhood sizes and exists for debug-build cross-validation, not
/// for production-scale inputs).
pub const CHECK_PEO_MAX_NODES: usize = 512;

/// Definitional perfect-elimination-ordering check: `order` is a
/// permutation of the nodes of `g` and, for every node `v`, the
/// neighbors of `v` occurring **later** in `order` are pairwise
/// adjacent.
///
/// This is the literal Definition-4 reading, `O(Σ deg²)` worst case —
/// deliberately independent of the deferred `R(v)\{p(v)} ⊆ R(p(v))`
/// check used by [`crate::is_perfect_elimination_ordering`], so the
/// two validate each other when cross-asserted in debug builds.
pub fn check_peo<G: Adjacency + ?Sized>(g: &G, order: &[NodeId]) -> bool {
    let n = g.node_count();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if v.index() >= n || pos[v.index()] != usize::MAX {
            return false; // out of range or duplicate
        }
        pos[v.index()] = i;
    }
    let mut later = Vec::with_capacity(n);
    for &v in order {
        later.clear();
        later.extend(
            g.neighbors(v)
                .iter()
                .copied()
                .filter(|&u| pos[u.index()] > pos[v.index()]),
        );
        for (i, &a) in later.iter().enumerate() {
            for &b in &later[i + 1..] {
                if g.neighbors(a).binary_search(&b).is_err() {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn agrees_with_the_deferred_check_on_small_graphs() {
        use crate::is_perfect_elimination_ordering;
        let pool = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)];
        for mask in 0u32..(1 << pool.len()) {
            let edges: Vec<(usize, usize)> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let g = graph_from_edges(4, &edges);
            // All 24 orderings of 4 nodes.
            let mut perm = [0u32, 1, 2, 3];
            permute(&mut perm, 0, &mut |p| {
                let order: Vec<NodeId> = p.iter().map(|&x| NodeId(x)).collect();
                assert_eq!(
                    check_peo(&g, &order),
                    is_perfect_elimination_ordering(&g, &order),
                    "mask={mask:#b} order={order:?}"
                );
            });
        }
    }

    fn permute(xs: &mut [u32; 4], k: usize, f: &mut impl FnMut(&[u32; 4])) {
        if k == xs.len() {
            f(xs);
            return;
        }
        for i in k..xs.len() {
            xs.swap(k, i);
            permute(xs, k + 1, f);
            xs.swap(k, i);
        }
    }

    #[test]
    fn rejects_non_permutations_and_transpositions() {
        // P3: eliminating the middle node first is not perfect.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert!(check_peo(&g, &ids(&[0, 1, 2])));
        assert!(!check_peo(&g, &ids(&[1, 0, 2])));
        assert!(!check_peo(&g, &ids(&[0, 1])));
        assert!(!check_peo(&g, &ids(&[0, 0, 1])));
        assert!(!check_peo(&g, &ids(&[0, 1, 9])));
    }
}
