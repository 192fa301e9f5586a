//! The Fig. 9 reduction: CSPC (cardinality Steiner in chordal graphs) →
//! pseudo-Steiner w.r.t. `V2`.
//!
//! Given a source graph `G = (V, A)` (chordal in the White–Farber–
//! Pulleyblank CSPC problem; arbitrary bipartite for the conformity-only
//! variant) and terminals `P ⊆ V`, build `G″ = (V1, V2, A″)`:
//!
//! * `V1 = V`;
//! * `V2` has one node `u^a_i` per arc `a_i` of `G`;
//! * `(u^a_i, v) ∈ A″` iff `v ∈ a_i` (the incidence bipartite graph).
//!
//! A connected subgraph of `G` over `P` with `r` arcs corresponds to a
//! tree in `G″` over `P` using `r` `V2`-nodes, so the pseudo-Steiner
//! optimum w.r.t. `V2` equals the CSPC optimum. When the source is
//! chordal, `G(H¹_{G″}) = G` is chordal, i.e. `G″` is V₂-chordal (but
//! not V₂-conformal); when the source is triangle-free (e.g. bipartite),
//! `G″` is V₂-conformal (but not V₂-chordal unless the source is
//! chordal) — the two halves of the paper's closing hardness remarks.

use mcc_graph::{BipartiteGraph, Graph, GraphError, NodeId, NodeSet, Side};

/// The constructed incidence gadget.
#[derive(Debug, Clone)]
pub struct CspcGadget {
    /// The source graph.
    pub source: Graph,
    /// The gadget `G″`: source nodes on `V1`, one `V2` node per arc.
    pub graph: BipartiteGraph,
    /// The source arcs in `V2`-node order (`arc_nodes[i]` represents
    /// `arcs[i]`).
    pub arcs: Vec<(NodeId, NodeId)>,
    /// Gadget ids of the arc nodes.
    pub arc_nodes: Vec<NodeId>,
}

impl CspcGadget {
    /// Builds the gadget. Source node `v` keeps id `v` in the gadget;
    /// arc nodes follow.
    pub fn build(source: &Graph) -> Self {
        let n = source.node_count();
        let arcs: Vec<(NodeId, NodeId)> = source.edges().collect();
        let mut b = Graph::builder();
        for v in source.nodes() {
            b.add_node(source.label(v));
        }
        let mut arc_nodes = Vec::with_capacity(arcs.len());
        for (i, &(a, c)) in arcs.iter().enumerate() {
            let u = b.add_node(format!("a{}", i + 1));
            #[expect(
                clippy::expect_used,
                reason = "`a` is a node id of the embedded source graph"
            )]
            b.add_edge(u, a).expect("source ids valid");
            #[expect(
                clippy::expect_used,
                reason = "`c` is a node id of the embedded source graph"
            )]
            b.add_edge(u, c).expect("source ids valid");
            arc_nodes.push(u);
        }
        let g = b.build();
        let side: Vec<Side> = (0..g.node_count())
            .map(|i| if i < n { Side::V1 } else { Side::V2 })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "arc nodes connect only to source nodes, so the incidence graph is bipartite"
        )]
        let graph = BipartiteGraph::new(g, side).expect("incidence graphs are bipartite");
        CspcGadget {
            source: source.clone(),
            graph,
            arcs,
            arc_nodes,
        }
    }

    /// Lifts source terminals into gadget terminals (same ids on `V1`).
    pub fn lift_terminals(&self, terminals: &NodeSet) -> NodeSet {
        NodeSet::from_nodes(self.graph.graph().node_count(), terminals.iter())
    }

    /// Exhaustive CSPC reference: the minimum number of arcs of a
    /// connected subgraph of the source containing `terminals`
    /// (equivalently `|nodes| − 1` of a minimum cover — a spanning tree
    /// of a minimum cover is arc-minimum and vice versa for unweighted
    /// graphs). `None` if infeasible.
    pub fn cspc_bruteforce(&self, terminals: &NodeSet) -> Option<usize> {
        if terminals.is_empty() {
            return Some(0);
        }
        mcc_steiner::minimum_cover_bruteforce(&self.source, terminals).map(|c| c.len() - 1)
    }
}

/// Convenience: a small chordal source graph for tests and the Fig. 9
/// experiment (two triangles sharing an edge, plus a tail).
pub fn sample_chordal_source() -> Result<Graph, GraphError> {
    let mut b = Graph::builder();
    let v: Vec<NodeId> = (0..5).map(|i| b.add_node(format!("v{}", i + 1))).collect();
    b.add_edges([
        (v[0], v[1]),
        (v[1], v[2]),
        (v[0], v[2]),
        (v[1], v[3]),
        (v[2], v[3]),
        (v[3], v[4]),
    ])?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_chordality::{is_chordal, is_vi_chordal, is_vi_conformal};
    use mcc_graph::builder::graph_from_edges;
    use mcc_steiner::lemma1_ordering;

    #[test]
    fn gadget_shape() {
        let src = sample_chordal_source().unwrap();
        let g = CspcGadget::build(&src);
        assert_eq!(g.graph.graph().node_count(), 5 + 6);
        assert_eq!(g.graph.graph().edge_count(), 12);
        assert_eq!(g.arcs.len(), 6);
        // Arc node a1 connects v1 and v2.
        let a1 = g.arc_nodes[0];
        assert_eq!(g.graph.graph().degree(a1), 2);
    }

    #[test]
    fn chordal_source_gives_v2_chordal_not_conformal_gadget() {
        let src = sample_chordal_source().unwrap();
        assert!(is_chordal(&src));
        let g = CspcGadget::build(&src);
        assert!(is_vi_chordal(&g.graph, Side::V2));
        // Triangles in the source are uncovered cliques of G(H¹).
        assert!(!is_vi_conformal(&g.graph, Side::V2));
    }

    #[test]
    fn bipartite_source_gives_v2_conformal_gadget() {
        // C6 source: triangle-free (so conformal) but not chordal.
        let src = graph_from_edges(6, &(0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        let g = CspcGadget::build(&src);
        assert!(is_vi_conformal(&g.graph, Side::V2));
        assert!(!is_vi_chordal(&g.graph, Side::V2));
    }

    #[test]
    fn v2_cost_equals_cspc_optimum() {
        // Exhaustive check over all terminal pairs/triples of the sample
        // source, using the exact node-weighted solver on the gadget.
        let src = sample_chordal_source().unwrap();
        let g = CspcGadget::build(&src);
        let n = src.node_count();
        let gn = g.graph.graph().node_count();
        let weights: Vec<u64> = (0..gn).map(|i| u64::from(i >= n)).collect(); // V2 indicator
        for mask in 1u32..(1 << n) {
            if mask.count_ones() < 2 {
                continue;
            }
            let src_terms = NodeSet::from_nodes(
                n,
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(NodeId::from_index),
            );
            let lifted = g.lift_terminals(&src_terms);
            let exact =
                mcc_steiner::steiner_exact_node_weighted(g.graph.graph(), &lifted, &weights);
            match (exact, g.cspc_bruteforce(&src_terms)) {
                (Some(sol), Some(arcs)) => assert_eq!(sol.cost as usize, arcs, "mask={mask}"),
                (None, None) => {}
                (a, b) => panic!("feasibility mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn algorithm1_rejects_the_gadget() {
        // The gadget is exactly the kind of graph Algorithm 1 must refuse
        // (it is not V2-conformal, so H¹ is not α-acyclic): no Lemma 1
        // ordering exists to run it along.
        let src = sample_chordal_source().unwrap();
        let g = CspcGadget::build(&src);
        assert!(lemma1_ordering(&g.graph, Side::V2).is_none());
    }
}
