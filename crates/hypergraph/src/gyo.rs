//! The Graham / Yu–Özsoyoğlu (GYO) reduction for α-acyclicity.
//!
//! GYO repeatedly applies two rules:
//!
//! 1. delete a node that belongs to at most one edge (an *ear node*);
//! 2. delete an edge that is contained in another (surviving) edge.
//!
//! `H` is α-acyclic iff the reduction erases every edge. The crate's
//! α-acyclicity recognizer is the Tarjan–Yannakakis join tree in
//! [`crate::join_tree`](mod@crate::join_tree); GYO is the independent
//! oracle tests hold it to, and the engine of
//! [`crate::suggest_alpha_repair`], which reads its residual edges.

use crate::{EdgeId, Hypergraph};
use mcc_graph::{NodeId, NodeSet};

/// One step of a GYO reduction trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GyoStep {
    /// A node belonging to ≤ 1 edge was removed.
    RemoveEarNode(NodeId),
    /// Edge `removed` was deleted because it is a subset of `kept`.
    RemoveContainedEdge {
        /// The deleted edge.
        removed: EdgeId,
        /// A surviving superset edge.
        kept: EdgeId,
    },
}

/// Result of running the GYO reduction to a fixpoint.
#[derive(Debug, Clone)]
pub struct GyoOutcome {
    /// `true` iff the hypergraph is α-acyclic (all edges erased).
    pub acyclic: bool,
    /// The applied steps, in order — a replayable certificate.
    pub trace: Vec<GyoStep>,
    /// Edges still alive at the fixpoint (empty iff `acyclic`).
    pub residual_edges: Vec<EdgeId>,
}

/// Runs the GYO reduction on `h`.
///
/// `O(n · m · |E|)` worst case with the straightforward fixpoint loop —
/// ample for this workspace, where α-acyclicity certificates on big
/// instances come from the MCS join tree instead.
pub fn gyo_reduce(h: &Hypergraph) -> GyoOutcome {
    let n = h.node_count();
    // Working copies of edge contents; `None` = deleted edge.
    let mut edges: Vec<Option<NodeSet>> = h.edge_ids().map(|e| Some(h.edge(e).clone())).collect();
    // occurrences[v] = number of live edges containing v.
    let mut occurrences = vec![0usize; n];
    for e in edges.iter().flatten() {
        for v in e.iter() {
            occurrences[v.index()] += 1;
        }
    }
    let mut trace = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        // Rule 1: ear nodes. Removing a node never makes containment
        // *harder*, so sweeping nodes first is safe.
        for (vi, occ) in occurrences.iter_mut().enumerate() {
            if *occ == 1 {
                let v = NodeId::from_index(vi);
                for e in edges.iter_mut().flatten() {
                    if e.remove(v) {
                        break;
                    }
                }
                *occ = 0;
                trace.push(GyoStep::RemoveEarNode(v));
                changed = true;
            }
        }
        // Drop edges that became empty: they are vacuously contained in any
        // other edge; if they are the only edges left the hypergraph is
        // fully reduced. We record them as contained-edge removals against
        // themselves-free bookkeeping: an empty edge is simply erased.
        for slot in edges.iter_mut() {
            if matches!(slot, Some(e) if e.is_empty()) {
                *slot = None;
                changed = true;
            }
        }
        // Rule 2: contained edges.
        'outer: for ei in 0..edges.len() {
            let Some(e) = &edges[ei] else { continue };
            for fi in 0..edges.len() {
                if fi == ei {
                    continue;
                }
                let Some(f) = &edges[fi] else { continue };
                // Ties (equal edges) break toward deleting the higher id,
                // so exactly one copy of a duplicate pair survives.
                if e.is_subset_of(f) && (e != f || ei > fi) {
                    #[expect(
                        clippy::expect_used,
                        reason = "`e` above came from this very `Some` entry"
                    )]
                    for v in edges[ei].as_ref().expect("checked Some").iter() {
                        occurrences[v.index()] -= 1;
                    }
                    edges[ei] = None;
                    trace.push(GyoStep::RemoveContainedEdge {
                        removed: EdgeId::from_index(ei),
                        kept: EdgeId::from_index(fi),
                    });
                    changed = true;
                    continue 'outer;
                }
            }
        }
    }
    let residual_edges: Vec<EdgeId> = edges
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.as_ref().map(|_| EdgeId::from_index(i)))
        .collect();
    GyoOutcome {
        acyclic: residual_edges.is_empty(),
        trace,
        residual_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;

    #[test]
    fn single_edge_is_acyclic() {
        let h = hypergraph_from_lists(&["a", "b"], &[("e", &[0, 1])]);
        let out = gyo_reduce(&h);
        assert!(out.acyclic);
        assert!(out.residual_edges.is_empty());
    }

    #[test]
    fn chain_is_acyclic() {
        // {a,b}, {b,c}, {c,d} — a path, classic α-acyclic.
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[2, 3])],
        );
        assert!(gyo_reduce(&h).acyclic);
    }

    #[test]
    fn triangle_of_pairs_is_cyclic() {
        // {a,b}, {b,c}, {a,c}: the canonical α-cyclic hypergraph.
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
        );
        let out = gyo_reduce(&h);
        assert!(!out.acyclic);
        assert_eq!(out.residual_edges.len(), 3);
    }

    #[test]
    fn triangle_plus_covering_edge_is_acyclic() {
        // Adding {a,b,c} over the triangle restores α-acyclicity.
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[
                ("x", &[0, 1]),
                ("y", &[1, 2]),
                ("z", &[0, 2]),
                ("w", &[0, 1, 2]),
            ],
        );
        assert!(gyo_reduce(&h).acyclic);
    }

    #[test]
    fn duplicate_edges_reduce() {
        let h = hypergraph_from_lists(&["a", "b"], &[("x", &[0, 1]), ("y", &[0, 1])]);
        let out = gyo_reduce(&h);
        assert!(out.acyclic);
        // One removal must be a containment step between the duplicates.
        assert!(out
            .trace
            .iter()
            .any(|s| matches!(s, GyoStep::RemoveContainedEdge { .. })));
    }

    #[test]
    fn empty_hypergraph_is_acyclic() {
        let h = hypergraph_from_lists(&["a"], &[]);
        assert!(gyo_reduce(&h).acyclic);
    }

    #[test]
    fn trace_is_nonempty_for_reductions() {
        let h = hypergraph_from_lists(&["a", "b", "c"], &[("x", &[0, 1, 2])]);
        let out = gyo_reduce(&h);
        assert!(out.acyclic);
        // Three ear-node removals happen before the edge empties.
        let ears = out
            .trace
            .iter()
            .filter(|s| matches!(s, GyoStep::RemoveEarNode(_)))
            .count();
        assert_eq!(ears, 3);
    }
}
