//! Side projections of bipartite graphs (the primal graphs of `H¹`/`H²`).

use mcc_graph::{BipartiteGraph, Graph, NodeId, Side};

/// The projection of `bg` onto side `s`: a graph whose nodes are the
/// `s`-side nodes of `bg`, with an arc between two of them iff they share
/// a neighbor (necessarily on the other side).
///
/// For `s = V1` this is exactly the primal graph `G(H¹_G)` of
/// Definition 7 — the object whose chordality characterizes
/// V₂-chordality of `bg` (Fact (a) in the proof of Theorem 1). Returns
/// the projection together with the map from projection ids back to `bg`
/// ids.
pub fn project_onto(bg: &BipartiteGraph, s: Side) -> (Graph, Vec<NodeId>) {
    let g = bg.graph();
    let mut to_parent: Vec<NodeId> = Vec::new();
    let mut index = vec![usize::MAX; g.node_count()];
    for v in bg.side_nodes(s) {
        index[v.index()] = to_parent.len();
        to_parent.push(v);
    }
    let mut b = Graph::builder();
    for &v in &to_parent {
        b.add_node(g.label(v));
    }
    // For every opposite-side node, clique its neighborhood.
    for w in bg.side_nodes(s.opposite()) {
        let nbrs = g.neighbors(w);
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                #[expect(
                    clippy::expect_used,
                    reason = "projected ids come from the `index` remap built over exactly the kept nodes"
                )]
                b.add_edge(
                    NodeId::from_index(index[nbrs[i].index()]),
                    NodeId::from_index(index[nbrs[j].index()]),
                )
                .expect("projected ids valid");
            }
        }
    }
    (b.build(), to_parent)
}

/// [`project_onto`] without labels: the projection of `bg` onto side
/// `s` as an unlabelled CSR `(offsets, targets)` (wrap them in
/// [`mcc_graph::CsrRef`]). Node `i` is the `i`-th node of side `s` in
/// increasing id order — the numbering of [`project_onto`]. Each row is
/// the OR of the neighbors' adjacency rows
/// ([`mcc_graph::Graph::or_neighbors_into`]), read back in increasing
/// order, so rows come out sorted and duplicate-free with no sort. Node
/// `v` has at most `Σ_{w ∈ N(v)} (deg w − 1)` projected neighbors, and
/// `targets` is reserved to that bound, so it never grows by
/// reallocation. Cost `O(Σ_{v ∈ s} (Σ_{w ∈ N(v)} min(deg w, ⌈n/64⌉) +
/// ⌈n/64⌉))` word operations.
pub(crate) fn project_csr(bg: &BipartiteGraph, s: Side) -> (Vec<usize>, Vec<NodeId>) {
    let g = bg.graph();
    let n = g.node_count();
    let mut index = vec![usize::MAX; n];
    let mut bound = 0;
    for (i, v) in bg.side_nodes(s).enumerate() {
        index[v.index()] = i;
        let paths: usize = g.neighbors(v).iter().map(|&w| g.degree(w) - 1).sum();
        bound += paths.min(n);
    }
    let mut row = vec![0u64; n.div_ceil(64)];
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(bound);
    for v in bg.side_nodes(s) {
        offsets.push(targets.len());
        for &w in g.neighbors(v) {
            g.or_neighbors_into(w, &mut row);
        }
        row[v.index() / 64] &= !(1 << (v.index() % 64));
        for (wi, word) in row.iter_mut().enumerate() {
            while *word != 0 {
                let u = wi * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                targets.push(NodeId::from_index(index[u]));
            }
        }
    }
    offsets.push(targets.len());
    (offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::bipartite::bipartite_from_lists;

    #[test]
    fn projection_connects_nodes_sharing_a_neighbor() {
        // V1 = {a, b, c}, V2 = {x, y}; x ~ a,b ; y ~ b,c.
        let bg = bipartite_from_lists(
            &["a", "b", "c"],
            &["x", "y"],
            &[(0, 0), (1, 0), (1, 1), (2, 1)],
        );
        let (p, map) = project_onto(&bg, Side::V1);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        assert!(p.has_edge(NodeId(0), NodeId(1)));
        assert!(p.has_edge(NodeId(1), NodeId(2)));
        assert!(!p.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(bg.graph().label(map[0]), "a");
    }

    #[test]
    fn projection_onto_v2() {
        let bg = bipartite_from_lists(&["a"], &["x", "y"], &[(0, 0), (0, 1)]);
        let (p, _) = project_onto(&bg, Side::V2);
        assert_eq!(p.node_count(), 2);
        assert!(p.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn isolated_side_nodes_stay_isolated() {
        let bg = bipartite_from_lists(&["a", "b"], &["x"], &[(0, 0)]);
        let (p, _) = project_onto(&bg, Side::V1);
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn csr_projection_matches_the_labelled_one() {
        use mcc_graph::{Adjacency, CsrRef};
        let bg = bipartite_from_lists(
            &["a", "b", "c", "d"],
            &["x", "y", "z"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2)],
        );
        // Also with pure CSR rows, so the scatter path runs too.
        let mut sparse = bg.graph().clone();
        sparse.rebuild_bit_rows(usize::MAX);
        let sides = bg.graph().nodes().map(|v| bg.side(v)).collect();
        let sparse = BipartiteGraph::new(sparse, sides).unwrap();
        for (bg, side) in [(&bg, Side::V1), (&bg, Side::V2), (&sparse, Side::V1)] {
            let (p, _) = project_onto(bg, side);
            let (offsets, targets) = project_csr(bg, side);
            let csr = CsrRef::new(&offsets, &targets);
            assert_eq!(csr.node_count(), p.node_count());
            for v in p.nodes() {
                assert_eq!(csr.neighbors(v), p.neighbors(v), "{side:?} {v:?}");
            }
        }
    }

    #[test]
    fn labels_preserved() {
        let bg = bipartite_from_lists(&["alpha", "beta"], &["rel"], &[(0, 0), (1, 0)]);
        let (p, _) = project_onto(&bg, Side::V1);
        assert_eq!(p.label(NodeId(1)), "beta");
    }
}
