//! Perturbation of generated instances — the failure-injection half of
//! the test suite: nudging an instance just off (or around) its class
//! and checking the recognizers notice.

use crate::rng;
use mcc_graph::{BipartiteGraph, Graph, GraphBuilder, NodeId, Side};
use rand::Rng;

/// Returns `bg` with one uniformly random edge removed; `None` when the
/// graph has no edges. Side assignment is preserved.
pub fn remove_random_edge(bg: &BipartiteGraph, seed: u64) -> Option<BipartiteGraph> {
    let g = bg.graph();
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    if edges.is_empty() {
        return None;
    }
    let mut r = rng(seed);
    let victim = edges[r.gen_range(0..edges.len())];
    Some(rebuild(bg, |e| e != victim, None))
}

/// Returns `bg` with one uniformly random *non-edge* across the
/// bipartition added; `None` when the graph is complete bipartite.
pub fn add_random_edge(bg: &BipartiteGraph, seed: u64) -> Option<BipartiteGraph> {
    let g = bg.graph();
    let v1: Vec<NodeId> = bg.side_nodes(Side::V1).collect();
    let v2: Vec<NodeId> = bg.side_nodes(Side::V2).collect();
    let mut non_edges = Vec::new();
    for &a in &v1 {
        for &b in &v2 {
            if !g.has_edge(a, b) {
                non_edges.push((a, b));
            }
        }
    }
    if non_edges.is_empty() {
        return None;
    }
    let mut r = rng(seed);
    let new_edge = non_edges[r.gen_range(0..non_edges.len())];
    Some(rebuild(bg, |_| true, Some(new_edge)))
}

#[expect(
    clippy::expect_used,
    reason = "the rebuilt graph reuses the input graph's id space, and sides are copied verbatim from the input bipartite graph"
)]
fn rebuild(
    bg: &BipartiteGraph,
    keep: impl Fn((NodeId, NodeId)) -> bool,
    extra: Option<(NodeId, NodeId)>,
) -> BipartiteGraph {
    let g = bg.graph();
    let mut b = GraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.label(v));
    }
    for e in g.edges() {
        if keep(e) {
            b.add_edge(e.0, e.1).expect("same id space");
        }
    }
    if let Some((a, c)) = extra {
        b.add_edge(a, c).expect("same id space");
    }
    let side = g.nodes().map(|v| bg.side(v)).collect();
    BipartiteGraph::new(b.build(), side).expect("sides unchanged")
}

/// Plain-graph variant of [`remove_random_edge`].
pub fn remove_random_edge_graph(g: &Graph, seed: u64) -> Option<Graph> {
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    if edges.is_empty() {
        return None;
    }
    let mut r = rng(seed);
    let victim = edges[r.gen_range(0..edges.len())];
    let mut b = GraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.label(v));
    }
    for e in g.edges() {
        if e != victim {
            #[expect(
                clippy::expect_used,
                reason = "the rebuilt graph reuses the input graph's id space"
            )]
            b.add_edge(e.0, e.1).expect("same id space");
        }
    }
    Some(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random_bipartite, random_six_two_block_tree};
    use mcc_chordality::{classify_bipartite, is_six_two_chordal};

    #[test]
    fn removal_reduces_edge_count_by_one() {
        let bg = random_bipartite(4, 4, 0.5, 3);
        let m = bg.graph().edge_count();
        let p = remove_random_edge(&bg, 9).expect("has edges");
        assert_eq!(p.graph().edge_count(), m - 1);
        assert_eq!(p.graph().node_count(), bg.graph().node_count());
    }

    #[test]
    fn addition_increases_edge_count_by_one() {
        let bg = random_bipartite(4, 4, 0.3, 3);
        let m = bg.graph().edge_count();
        let p = add_random_edge(&bg, 9).expect("not complete");
        assert_eq!(p.graph().edge_count(), m + 1);
    }

    #[test]
    fn complete_bipartite_cannot_gain_edges() {
        let bg = random_bipartite(3, 3, 1.0, 0);
        assert!(add_random_edge(&bg, 1).is_none());
        let empty = random_bipartite(3, 3, 0.0, 0);
        assert!(remove_random_edge(&empty, 1).is_none());
    }

    #[test]
    fn class_membership_is_edge_sensitive() {
        // Injecting random edges into a (6,2)-chordal block tree
        // eventually knocks it out of the class — and the recognizer
        // notices rather than silently accepting.
        let mut bg = random_six_two_block_tree(Default::default(), 4);
        assert!(is_six_two_chordal(&bg));
        let mut left_class = false;
        for seed in 0..40 {
            match add_random_edge(&bg, seed) {
                Some(p) => {
                    if !is_six_two_chordal(&p) {
                        left_class = true;
                        break;
                    }
                    bg = p;
                }
                None => break,
            }
        }
        assert!(
            left_class,
            "adding arbitrary edges must eventually break (6,2)"
        );
    }

    #[test]
    fn forest_stays_forest_under_removal() {
        let bg = crate::random_tree_bipartite(12, 5);
        let p = remove_random_edge(&bg, 7).expect("tree has edges");
        assert!(
            classify_bipartite(&p).four_one,
            "removing edges keeps forests forests"
        );
    }

    #[test]
    fn graph_variant_matches() {
        let bg = random_bipartite(4, 4, 0.5, 3);
        let g = bg.graph().clone();
        let m = g.edge_count();
        let p = remove_random_edge_graph(&g, 11).expect("has edges");
        assert_eq!(p.edge_count(), m - 1);
    }
}
