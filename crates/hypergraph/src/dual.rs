//! The dual hypergraph (Definition 3).

use crate::{EdgeId, Hypergraph, HypergraphError};
use mcc_graph::NodeSet;

/// A dual-RIP node ordering with its per-position witnesses (`None` where
/// the prefix-intersection is empty). See [`dual_node_ordering`].
pub type DualNodeOrdering = (Vec<mcc_graph::NodeId>, Vec<Option<mcc_graph::NodeId>>);

/// Computes the dual hypergraph `H'` of `H` (Definition 3): nodes of `H'`
/// correspond to edges of `H`, edges of `H'` correspond to nodes of `H`,
/// and dual-node `n'` (for edge `e` of `H`) belongs to dual-edge (for node
/// `v` of `H`) iff `v ∈ e`.
///
/// The dual is undefined when some node of `H` belongs to no edge — the
/// corresponding dual edge would be empty, violating Definition 1 — in
/// which case [`HypergraphError::IsolatedNode`] is returned.
///
/// Taking the dual twice yields a hypergraph isomorphic to the original
/// (provided `H` itself has no empty edges, which the type guarantees, and
/// no isolated nodes). Corollary 1 of the paper states that Berge-, γ-,
/// and β-acyclicity are invariant under this operation, while α-acyclicity
/// is not — both facts are exercised in tests.
pub fn dual(h: &Hypergraph) -> Result<Hypergraph, HypergraphError> {
    for v in h.nodes() {
        if h.is_isolated(v) {
            return Err(HypergraphError::IsolatedNode(v));
        }
    }
    let dual_node_labels: Vec<String> = h.edge_ids().map(|e| h.edge_label(e).to_string()).collect();
    let dual_edge_labels: Vec<String> = h.nodes().map(|v| h.node_label(v).to_string()).collect();
    let dual_edges: Vec<NodeSet> = h
        .nodes()
        .map(|v| {
            NodeSet::from_nodes(
                h.edge_count(),
                h.edges_containing(v)
                    .iter()
                    .map(|e| mcc_graph::NodeId::from_index(e.index())),
            )
        })
        .collect();
    Ok(Hypergraph::from_parts(
        dual_node_labels,
        dual_edge_labels,
        dual_edges,
    ))
}

/// The paper's **dual running intersection property** (displayed after
/// Corollary 1): an ordering `n₁, …, n_q` of the nodes such that for
/// each `nᵢ` (i ≥ 2) there is an earlier `n_j` belonging to **every**
/// edge that contains both `nᵢ` and any earlier node.
///
/// Such an ordering is exactly a running-intersection ordering of the
/// *dual* hypergraph's edges, so it exists iff the dual is α-acyclic —
/// in particular for every β-acyclic hypergraph (Corollary 1), while for
/// merely α-acyclic ones it can fail (the paper's Fig. 2 remark).
///
/// Returns the node ordering together with the witness for each
/// position (`None` for positions whose prefix-intersection is empty).
pub fn dual_node_ordering(h: &Hypergraph) -> Result<Option<DualNodeOrdering>, HypergraphError> {
    let d = dual(h)?;
    let Some(jt) = crate::join_tree(&d) else {
        return Ok(None);
    };
    // Dual edges are indexed by the nodes of `h` (same dense order).
    let order: Vec<mcc_graph::NodeId> = jt
        .order
        .iter()
        .map(|e| mcc_graph::NodeId::from_index(e.index()))
        .collect();
    let witnesses: Vec<Option<mcc_graph::NodeId>> = jt
        .parent
        .iter()
        .map(|p| p.map(|e| mcc_graph::NodeId::from_index(e.index())))
        .collect();
    Ok(Some((order, witnesses)))
}

/// Checks the displayed dual-RIP property literally against `h`:
/// `witness[i]` must lie in every edge containing `order[i]` together
/// with some earlier node.
pub fn check_dual_node_ordering(
    h: &Hypergraph,
    order: &[mcc_graph::NodeId],
    witnesses: &[Option<mcc_graph::NodeId>],
) -> bool {
    if order.len() != h.node_count() || witnesses.len() != order.len() {
        return false;
    }
    let mut earlier = mcc_graph::NodeSet::new(h.node_count());
    for (i, &ni) in order.iter().enumerate() {
        // Edges containing n_i and at least one earlier node.
        let constrained: Vec<EdgeId> = h
            .edges_containing(ni)
            .iter()
            .copied()
            .filter(|&e| !h.edge(e).intersection(&earlier).is_empty())
            .collect();
        match witnesses[i] {
            Some(w) => {
                if !earlier.contains(w) && !constrained.is_empty() {
                    return false;
                }
                if constrained.iter().any(|&e| !h.edge_contains(e, w)) {
                    return false;
                }
            }
            None => {
                if !constrained.is_empty() {
                    return false;
                }
            }
        }
        earlier.insert(ni);
    }
    true
}

/// `true` when `a` and `b` are isomorphic *as labelled hypergraphs under
/// the identity on indices*: same node count, same edge count, and edge
/// `i` of `a` equals edge `i` of `b` as a node set. This is exactly the
/// sense in which `dual(dual(H)) = H`; it is not a general isomorphism
/// test.
pub fn index_identical(a: &Hypergraph, b: &Hypergraph) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.edge_ids()
            .all(|e| a.edge(e) == b.edge(EdgeId::from_index(e.index())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;
    use mcc_graph::NodeId;

    #[test]
    fn dual_of_triangle_hypergraph() {
        // Nodes {a,b,c}, edges x={a,b}, y={b,c}, z={a,c}.
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
        );
        let d = dual(&h).unwrap();
        assert_eq!(d.node_count(), 3); // x, y, z
        assert_eq!(d.edge_count(), 3); // a, b, c
                                       // Dual edge "a" = edges containing a = {x, z} = dual nodes 0, 2.
        let ea = d.edge_by_label("a").unwrap();
        assert_eq!(d.edge(ea).to_vec(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(d.node_label(NodeId(1)), "y");
    }

    #[test]
    fn dual_undefined_with_isolated_node() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0])]);
        assert_eq!(dual(&h), Err(HypergraphError::IsolatedNode(NodeId(1))));
    }

    #[test]
    fn double_dual_is_identity() {
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[("x", &[0, 1, 2]), ("y", &[2, 3]), ("z", &[0, 3])],
        );
        let dd = dual(&dual(&h).unwrap()).unwrap();
        assert!(index_identical(&h, &dd));
    }

    #[test]
    fn double_dual_with_duplicate_edges() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0, 1]), ("y", &[0, 1])]);
        let dd = dual(&dual(&h).unwrap()).unwrap();
        assert!(index_identical(&h, &dd));
    }

    #[test]
    fn dual_node_ordering_exists_for_beta_acyclic() {
        // A chain is beta-acyclic: the dual ordering exists and checks.
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[2, 3])],
        );
        let (order, wit) = dual_node_ordering(&h).unwrap().expect("beta-acyclic");
        assert!(check_dual_node_ordering(&h, &order, &wit));
    }

    #[test]
    fn dual_node_ordering_fails_for_alpha_only() {
        // The covered triangle is alpha- but not beta-acyclic: its dual
        // is not alpha-acyclic, so no dual ordering exists — the paper's
        // Fig. 2 remark that duality fails for alpha.
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[
                ("x", &[0, 1]),
                ("y", &[1, 2]),
                ("z", &[0, 2]),
                ("w", &[0, 1, 2]),
            ],
        );
        assert!(dual_node_ordering(&h).unwrap().is_none());
    }

    #[test]
    fn dual_node_ordering_checker_rejects_bogus() {
        let h = hypergraph_from_lists(&["a", "b", "c"], &[("x", &[0, 1]), ("y", &[1, 2])]);
        let (order, mut wit) = dual_node_ordering(&h).unwrap().expect("beta-acyclic");
        assert!(check_dual_node_ordering(&h, &order, &wit));
        // Break a witness.
        if let Some(slot) = wit.iter_mut().find(|w| w.is_some()) {
            *slot = None;
            assert!(!check_dual_node_ordering(&h, &order, &wit));
        }
        // Wrong length.
        assert!(!check_dual_node_ordering(&h, &order[1..], &wit[1..]));
    }

    #[test]
    fn index_identical_detects_difference() {
        let h1 = hypergraph_from_lists(&["a", "b"], &[("x", &[0])]);
        let h2 = hypergraph_from_lists(&["a", "b"], &[("x", &[1])]);
        assert!(!index_identical(&h1, &h2));
    }
}
