//! Perfect elimination orderings.

use mcc_graph::{Adjacency, Graph, NodeId, Workspace};

/// Checks whether `order` (an elimination order: `order[0]` is eliminated
/// first) is a **perfect elimination ordering** of `g`: for every node
/// `v`, the neighbors of `v` that occur *later* in the order form a
/// clique.
///
/// Thin wrapper over [`is_perfect_elimination_ordering_in`] with a
/// transient workspace.
pub fn is_perfect_elimination_ordering(g: &Graph, order: &[NodeId]) -> bool {
    is_perfect_elimination_ordering_in(&mut Workspace::new(), g, order)
}

/// [`is_perfect_elimination_ordering`] through a workspace (the position
/// table and later-neighbor scratch come from the pools).
///
/// Uses the standard deferred check (Golumbic; Tarjan–Yannakakis): for
/// each `v` let `R(v)` be its later neighbors and `p(v)` the earliest of
/// them; it suffices that `R(v) \ {p(v)} ⊆ R(p(v))`, verified in
/// `O(n + m·deg)` overall instead of testing all pairs.
///
/// Returns `false` when `order` is not a permutation of the nodes.
pub fn is_perfect_elimination_ordering_in<G: Adjacency + ?Sized>(
    ws: &mut Workspace,
    g: &G,
    order: &[NodeId],
) -> bool {
    let n = g.node_count();
    if order.len() != n {
        return false;
    }
    let mut pos = ws.take_usize_buf();
    pos.resize(n, usize::MAX);
    let mut later = ws.take_node_buf();
    let done = |ws: &mut Workspace, pos: Vec<usize>, later: Vec<NodeId>, ok: bool| {
        ws.return_usize_buf(pos);
        ws.return_node_buf(later);
        ok
    };
    for (i, &v) in order.iter().enumerate() {
        if v.index() >= n || pos[v.index()] != usize::MAX {
            return done(ws, pos, later, false); // out of range or duplicate
        }
        pos[v.index()] = i;
    }
    for &v in order {
        // Later neighbors of v, i.e. the ones surviving when v is
        // eliminated.
        later.clear();
        later.extend(
            g.neighbors(v)
                .iter()
                .copied()
                .filter(|&u| pos[u.index()] > pos[v.index()]),
        );
        if later.len() <= 1 {
            continue;
        }
        later.sort_by_key(|&u| pos[u.index()]);
        // `p` is the earliest later neighbor; on dense graphs its bitset
        // row answers each membership probe in O(1) words.
        let p = later[0];
        for &u in &later[1..] {
            if !g.has_edge(p, u) {
                return done(ws, pos, later, false);
            }
        }
    }
    done(ws, pos, later, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn path_any_end_first_is_peo() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert!(is_perfect_elimination_ordering(&g, &ids(&[0, 1, 2])));
        assert!(is_perfect_elimination_ordering(&g, &ids(&[2, 1, 0])));
        // Eliminating the middle first leaves its two (non-adjacent)
        // neighbors as later neighbors — not a clique.
        assert!(!is_perfect_elimination_ordering(&g, &ids(&[1, 0, 2])));
    }

    #[test]
    fn square_has_no_peo() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        // All 24 permutations fail (C4 is not chordal). Spot-check a few
        // plus exhaustively via heap's-style enumeration.
        let perms = permutations(4);
        for p in perms {
            let order: Vec<NodeId> = p.iter().map(|&i| NodeId(i as u32)).collect();
            assert!(!is_perfect_elimination_ordering(&g, &order), "{order:?}");
        }
    }

    #[test]
    fn triangle_everything_is_peo() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        for p in permutations(3) {
            let order: Vec<NodeId> = p.iter().map(|&i| NodeId(i as u32)).collect();
            assert!(is_perfect_elimination_ordering(&g, &order));
        }
    }

    #[test]
    fn rejects_non_permutations() {
        let g = graph_from_edges(3, &[(0, 1)]);
        assert!(!is_perfect_elimination_ordering(&g, &ids(&[0, 1])));
        assert!(!is_perfect_elimination_ordering(&g, &ids(&[0, 1, 1])));
        assert!(!is_perfect_elimination_ordering(&g, &ids(&[0, 1, 7])));
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for i in 0..=p.len() {
                let mut q = p.clone();
                q.insert(i, n - 1);
                out.push(q);
            }
        }
        out
    }
}
