//! Maximal cliques and clique trees of chordal graphs.
//!
//! The deep reason Theorem 1(v) works: a graph is chordal iff it has a
//! **clique tree** (a join tree over its maximal cliques), and a
//! hypergraph is α-acyclic iff its edges can be arranged in a join tree —
//! so chordality of `G(H¹)` plus conformality (cliques = edges) *is*
//! α-acyclicity. This module makes the object concrete:
//!
//! * [`chordal_maximal_cliques`] extracts the maximal cliques of a
//!   chordal graph from an MCS perfect-elimination ordering in
//!   `O(n + m)`-ish time (a chordal graph has ≤ n maximal cliques);
//! * [`clique_tree`] assembles them into a join tree with
//!   `mcc-hypergraph`'s Tarjan–Yannakakis [`join_tree()`], returning the
//!   tree in parent-pointer form.
//!
//! Both are cross-checked against Bron–Kerbosch in tests.

use crate::{is_perfect_elimination_ordering, mcs_order};
use mcc_graph::{Graph, NodeSet};
use mcc_hypergraph::{join_tree, HypergraphBuilder, JoinTree};

/// The maximal cliques of a **chordal** graph, via the classic PEO scan:
/// for each vertex `v` (in elimination order) the set `{v} ∪ RN(v)` of
/// `v` with its later neighbors is a clique, and the maximal cliques are
/// exactly the inclusion-maximal ones among these `n` candidates.
///
/// Returns `None` when `g` is not chordal.
pub fn chordal_maximal_cliques(g: &Graph) -> Option<Vec<NodeSet>> {
    let n = g.node_count();
    let mut order = mcs_order(g);
    order.reverse();
    if !is_perfect_elimination_ordering(g, &order) {
        return None;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    let mut candidates: Vec<NodeSet> = Vec::with_capacity(n);
    for &v in &order {
        let mut c = NodeSet::new(n);
        c.insert(v);
        for &u in g.neighbors(v) {
            if pos[u.index()] > pos[v.index()] {
                c.insert(u);
            }
        }
        candidates.push(c);
    }
    // Keep inclusion-maximal candidates. In a PEO, candidate(v) is
    // non-maximal iff it is contained in candidate(u) for the first
    // later neighbor u of v with |RN(v)| = |RN(u)| + 1 — but the simple
    // quadratic filter is clearer and ample at this workspace's scale.
    let mut maximal: Vec<NodeSet> = Vec::new();
    'cand: for (i, c) in candidates.iter().enumerate() {
        for (j, d) in candidates.iter().enumerate() {
            if i != j && c.is_subset_of(d) && (c != d || i > j) {
                continue 'cand;
            }
        }
        maximal.push(c.clone());
    }
    Some(maximal)
}

/// A clique tree of a chordal graph: its maximal cliques arranged in a
/// join tree (running-intersection order with parent witnesses). The
/// returned hypergraph-side [`JoinTree`] indexes the cliques of the
/// second component.
///
/// Returns `None` when `g` is not chordal.
pub fn clique_tree(g: &Graph) -> Option<(JoinTree, Vec<NodeSet>)> {
    let cliques = chordal_maximal_cliques(g)?;
    // Build a hypergraph whose edges are the cliques and reuse the RIP
    // machinery.
    let mut b = HypergraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.label(v));
    }
    for (i, c) in cliques.iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "maximal cliques are nonempty, `add_edge`'s only failure mode here"
        )]
        b.add_edge(format!("K{i}"), c.iter())
            .expect("cliques nonempty");
    }
    let h = b.build();
    #[expect(
        clippy::expect_used,
        reason = "the clique hypergraph of a chordal graph is alpha-acyclic (Gavril), so a running-intersection ordering exists"
    )]
    let jt = join_tree(&h).expect("clique hypergraphs of chordal graphs are alpha-acyclic");
    Some((jt, cliques))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;
    use mcc_hypergraph::conformal::maximal_cliques as bron_kerbosch;

    fn sorted(mut cs: Vec<NodeSet>) -> Vec<Vec<mcc_graph::NodeId>> {
        let mut out: Vec<_> = cs.drain(..).map(|c| c.to_vec()).collect();
        out.sort();
        out
    }

    #[test]
    fn matches_bron_kerbosch_on_chordal_examples() {
        for (n, edges) in [
            (
                4usize,
                vec![(0usize, 1usize), (1, 2), (0, 2), (1, 3), (2, 3)],
            ),
            (5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
            (6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            (4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ] {
            let g = graph_from_edges(n, &edges);
            let ours = chordal_maximal_cliques(&g).expect("fixtures are chordal");
            let bk = bron_kerbosch(&g);
            // Isolated nodes: BK reports singletons; so does the PEO scan.
            assert_eq!(sorted(ours), sorted(bk), "edges={edges:?}");
        }
    }

    #[test]
    fn non_chordal_is_rejected() {
        let c4 = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(chordal_maximal_cliques(&c4).is_none());
        assert!(clique_tree(&c4).is_none());
    }

    #[test]
    fn chordal_graphs_have_at_most_n_maximal_cliques() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let cs = chordal_maximal_cliques(&g).unwrap();
        assert!(cs.len() <= 6);
    }

    #[test]
    fn clique_tree_is_a_valid_join_tree() {
        // Two triangles joined by a path.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let (jt, cliques) = clique_tree(&g).unwrap();
        assert_eq!(jt.order.len(), cliques.len());
        // Rebuild the clique hypergraph and validate the join tree.
        let mut b = HypergraphBuilder::new();
        for v in g.nodes() {
            b.add_node(g.label(v));
        }
        for (i, c) in cliques.iter().enumerate() {
            b.add_edge(format!("K{i}"), c.iter()).unwrap();
        }
        assert!(jt.is_valid(&b.build()));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = graph_from_edges(0, &[]);
        assert_eq!(chordal_maximal_cliques(&g).unwrap().len(), 0);
        let g = graph_from_edges(1, &[]);
        let cs = chordal_maximal_cliques(&g).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 1);
    }
}
