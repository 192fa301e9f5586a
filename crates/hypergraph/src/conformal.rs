//! Conformality (Definition 7).
//!
//! A hypergraph is *conformal* when every clique of its primal graph
//! `G(H)` is contained in some edge. Definition 7 uses this to define
//! α-acyclicity: `H` is α-acyclic iff `G(H)` is chordal and `H` is
//! conformal.
//!
//! The production test is **Gilmore's criterion**: `H` is conformal iff
//! for every three edges `eᵢ, eⱼ, eₖ` some edge contains
//! `need = (eᵢ∩eⱼ) ∪ (eᵢ∩eₖ) ∪ (eⱼ∩eₖ)`. Triples with a repeated edge
//! hold trivially (`need` then lies in the repeated edge), so only
//! distinct triples `i < j < k` are checked. A brute-force maximal-clique
//! check (Bron–Kerbosch on `G(H)`) is also provided as ground truth for
//! tests.
//!
//! ## Pruning lemma
//!
//! > **If one pairwise intersection of a triple lies inside the third
//! > edge, the triple satisfies Gilmore's criterion.** In particular a
//! > violating triple has all three pairwise intersections nonempty.
//!
//! *Proof.* Say `eᵢ∩eⱼ ⊆ eₖ`. The other two parts of `need`, `eᵢ∩eₖ`
//! and `eⱼ∩eₖ`, lie in `eₖ` by definition, so `need ⊆ eₖ` and `eₖ`
//! itself is the covering edge. The cases `eᵢ∩eₖ ⊆ eⱼ` and
//! `eⱼ∩eₖ ⊆ eᵢ` are symmetric. An empty intersection is contained in
//! every edge, so it falls under the first case. ∎
//!
//! ## The scan
//!
//! [`find_conformality_violation`] therefore only visits triangles of
//! the *edge-intersection graph*: for each edge `i` it takes its
//! partners (the higher-indexed edges sharing a node with it, built once
//! from the incidence lists), marks them, and for each partner `j` walks
//! `j`'s partners `k`, keeping those that are marked. Each surviving
//! triple is dropped as soon as one pairwise intersection lies inside the
//! third edge. Only then is `need` tested, and only against the edges
//! containing one of its nodes: a covering edge must contain every node
//! of `need`.
//!
//! Write `d(v)` for the number of edges containing node `v`, `W` for
//! the number of paths `i–j–k` (`i < j < k`) in the edge-intersection
//! graph, and `T ≤ W` for the number of triples of pairwise-intersecting
//! edges. Building the partner lists takes `O(Σᵥ d(v)²)` steps, the
//! enumeration one mark test per path (`O(W)`), and the set algebra
//! `O(T · (1 + max d) · ⌈|N|/64⌉)` word operations. The dense criterion
//! visits all `|E|³/6` triples however sparsely the edges overlap and
//! tests each against up to `|E|` edges. All
//! scratch (three node rows, the partner lists and one edge mark row) is
//! allocated once per call; the only other allocation is the returned
//! witness. Triples are visited in the lexicographic order of the dense
//! criterion, so the witness is the same one the dense scan would return.

use crate::{primal_graph, EdgeId, Hypergraph};
use mcc_graph::{Graph, NodeId, NodeSet};

/// Gilmore's polynomial conformality test.
pub fn is_conformal(h: &Hypergraph) -> bool {
    find_conformality_violation(h).is_none()
}

/// The witness version of Gilmore's test: a set of nodes that pairwise
/// co-occur in edges (a clique of `G(H)`) yet is contained in no single
/// edge — `None` when `H` is conformal. Only triples of pairwise
/// intersecting edges are examined; see the module docs for the lemma
/// that licenses the pruning and for the cost.
pub fn find_conformality_violation(h: &Hypergraph) -> Option<NodeSet> {
    let partners = higher_partners(h);
    let n = h.node_count();
    let mut marked = vec![false; h.edge_count()];
    let mut ij = NodeSet::new(n);
    let mut ik = NodeSet::new(n);
    let mut jk = NodeSet::new(n);
    for i in h.edge_ids() {
        let ei = h.edge(i);
        let pi = &partners[i.index()];
        for &j in pi {
            marked[j.index()] = true;
        }
        for &j in pi {
            let ej = h.edge(j);
            ij.clear();
            ij.union_with(ei);
            ij.intersect_with(ej);
            for &k in &partners[j.index()] {
                if !marked[k.index()] {
                    continue;
                }
                let ek = h.edge(k);
                if ij.is_subset_of(ek) {
                    continue;
                }
                ik.clear();
                ik.union_with(ei);
                ik.intersect_with(ek);
                if ik.is_subset_of(ej) {
                    continue;
                }
                jk.clear();
                jk.union_with(ej);
                jk.intersect_with(ek);
                if jk.is_subset_of(ei) {
                    continue;
                }
                // `ik` becomes `need`; a covering edge contains its first node.
                ik.union_with(&ij);
                ik.union_with(&jk);
                let need = &ik;
                let uncovered = need.first().is_some_and(|v| {
                    !h.edges_containing(v)
                        .iter()
                        .any(|&e| need.is_subset_of(h.edge(e)))
                });
                if uncovered {
                    return Some(ik);
                }
            }
        }
        for &j in pi {
            marked[j.index()] = false;
        }
    }
    None
}

/// For every edge `i`, the edges `k > i` that share a node with it, in
/// increasing order. Found from the incidence lists with `k` ascending,
/// so each list is built sorted and a repeat of `k` is always its tail.
fn higher_partners(h: &Hypergraph) -> Vec<Vec<EdgeId>> {
    let mut partners: Vec<Vec<EdgeId>> = vec![Vec::new(); h.edge_count()];
    for k in h.edge_ids() {
        for v in h.edge(k).iter() {
            // Incidence lists are sorted: the lower-indexed edges come first.
            for &i in h.edges_containing(v).iter().take_while(|&&i| i < k) {
                let list = &mut partners[i.index()];
                if list.last() != Some(&k) {
                    list.push(k);
                }
            }
        }
    }
    partners
}

/// Ground-truth conformality: enumerate the maximal cliques of the primal
/// graph with Bron–Kerbosch and check each is contained in an edge.
/// Exponential in the worst case; intended for tests and small instances.
pub fn is_conformal_bruteforce(h: &Hypergraph) -> bool {
    let g = primal_graph(h);
    let cliques = maximal_cliques(&g);
    cliques.iter().all(|c| {
        // Cliques of size ≤ 1 are vacuously covered only if the node lies
        // in some edge; isolated nodes have the empty clique {v} which no
        // edge need contain — Definition 7 quantifies over cliques of
        // G(H), and an isolated node forms a 1-clique contained in an edge
        // iff the node is non-isolated. We follow the convention that
        // 1-cliques of isolated nodes are ignored (they carry no
        // co-occurrence constraint), matching Gilmore's criterion. The
        // same goes for the empty clique that Bron–Kerbosch reports on a
        // node-less hypergraph.
        if c.len() <= 1 {
            return true;
        }
        h.edge_ids().any(|e| c.is_subset_of(h.edge(e)))
    })
}

/// All maximal cliques of `g`, via Bron–Kerbosch with greedy pivoting.
pub fn maximal_cliques(g: &Graph) -> Vec<NodeSet> {
    let n = g.node_count();
    let mut out = Vec::new();
    let mut r = NodeSet::new(n);
    let p = NodeSet::full(n);
    let x = NodeSet::new(n);
    let nbr: Vec<NodeSet> = g
        .nodes()
        .map(|v| NodeSet::from_nodes(n, g.neighbors(v).iter().copied()))
        .collect();
    bron_kerbosch(&nbr, &mut r, p, x, &mut out);
    out
}

fn bron_kerbosch(nbr: &[NodeSet], r: &mut NodeSet, p: NodeSet, x: NodeSet, out: &mut Vec<NodeSet>) {
    if p.is_empty() && x.is_empty() {
        out.push(r.clone());
        return;
    }
    // Pivot: the vertex of P ∪ X with most neighbors in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .max_by_key(|&u| nbr[u.index()].intersection(&p).len())
        // PROVABLY: the empty-P-and-X case returned at the top of the function.
        .expect("P ∪ X nonempty");
    let candidates: Vec<NodeId> = p.difference(&nbr[pivot.index()]).to_vec();
    let mut p = p;
    let mut x = x;
    for v in candidates {
        r.insert(v);
        let p2 = p.intersection(&nbr[v.index()]);
        let x2 = x.intersection(&nbr[v.index()]);
        bron_kerbosch(nbr, r, p2, x2, out);
        r.remove(v);
        p.remove(v);
        x.insert(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;
    use mcc_graph::builder::graph_from_edges;

    #[test]
    fn maximal_cliques_of_k3_plus_pendant() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut cs = maximal_cliques(&g);
        cs.sort_by_key(|c| c.to_vec());
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].to_vec(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(cs[1].to_vec(), vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn triangle_of_pairs_is_not_conformal() {
        // Primal graph is a triangle but no edge holds all three nodes.
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
        );
        assert!(!is_conformal(&h));
        assert!(!is_conformal_bruteforce(&h));
    }

    #[test]
    fn covered_triangle_is_conformal() {
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[
                ("x", &[0, 1]),
                ("y", &[1, 2]),
                ("z", &[0, 2]),
                ("w", &[0, 1, 2]),
            ],
        );
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
    }

    #[test]
    fn chain_is_conformal() {
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[2, 3])],
        );
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
    }

    #[test]
    fn single_edge_and_empty_are_conformal() {
        let h = hypergraph_from_lists(&["a", "b"], &[("e", &[0, 1])]);
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
        let h = hypergraph_from_lists(&["a"], &[]);
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
        let h = hypergraph_from_lists(&[], &[]);
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
    }

    #[test]
    fn four_edge_nonconformal_case() {
        // K4 as primal from the six pair-edges; the 4-clique is uncovered.
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[
                ("ab", &[0, 1]),
                ("ac", &[0, 2]),
                ("ad", &[0, 3]),
                ("bc", &[1, 2]),
                ("bd", &[1, 3]),
                ("cd", &[2, 3]),
            ],
        );
        assert!(!is_conformal(&h));
        assert!(!is_conformal_bruteforce(&h));
        // Covering with the full edge fixes it.
        let h2 = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[
                ("ab", &[0, 1]),
                ("ac", &[0, 2]),
                ("ad", &[0, 3]),
                ("bc", &[1, 2]),
                ("bd", &[1, 3]),
                ("cd", &[2, 3]),
                ("all", &[0, 1, 2, 3]),
            ],
        );
        assert!(is_conformal(&h2));
        assert!(is_conformal_bruteforce(&h2));
    }
}
