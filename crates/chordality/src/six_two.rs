//! (6,2)-chordality: every cycle of length ≥ 6 has at least two chords.
//!
//! By Theorem 1(ii) this class corresponds to γ-acyclic hypergraphs; it is
//! the class on which the paper's Algorithm 2 solves the full Steiner
//! problem in polynomial time (Theorem 5).
//!
//! ## Recognition
//!
//! The recognizer rests on a structural fact:
//!
//! > **In a chordal bipartite graph every cycle of length ≥ 8 has at
//! > least two chords.**
//!
//! *Proof sketch.* Let `C` be a cycle of length `2k ≥ 8` with exactly one
//! chord `e = (x, y)`. `e` splits `C` into two cycles sharing `e`, of
//! lengths `l₁ + l₂ = 2k + 2` with `l₁, l₂ ≥ 4`; one of them, say `C₁`,
//! has length ≥ 6, so it has a chord `f` in `G`. The nodes of `C₁` are
//! nodes of `C`, the only `C`-edges absent from `C₁` lie on the other
//! part and touch `C₁` only at `x` and `y` — which are adjacent *in*
//! `C₁` — so `f` joins two nodes non-consecutive in `C` as well: `f` is a
//! second chord of `C`. ∎
//!
//! Hence **(6,2)-chordal ⟺ chordal bipartite ∧ every 6-cycle has ≥ 2
//! chords**, and only 6-cycles need a dedicated scan. A 6-cycle
//! `x₁ y₁₂ x₂ y₂₃ x₃ y₃₁` (the `x`s on `V1`) has exactly three candidate
//! chords — `x₃y₁₂`, `x₁y₂₃`, `x₂y₃₁` — and candidate `xᵢyⱼₖ` is present
//! iff `yⱼₖ` lies in the *triple* intersection `N(x₁)∩N(x₂)∩N(x₃)`. A
//! violating 6-cycle (≤ 1 chord) therefore exists iff for some `V1`-triple
//! two of the pairwise-private connector sets are nonempty while the
//! remaining pairwise intersection is nonempty. That check is pure set
//! algebra per triple, no cycle enumeration, and only triples that
//! pairwise share a neighbor — the triangles of the projection onto
//! `V1` — need it (`sparse_six_cycle_in`).

use crate::{is_chordal_bipartite_in, is_mn_chordal_bruteforce};
use mcc_graph::{BipartiteGraph, CycleLimits, Graph, NodeId, Side, Workspace};
use mcc_hypergraph::{Incidence, SideIncidence};

/// Production (6,2)-chordality recognizer. See module docs.
///
/// Thin wrapper over [`is_six_two_chordal_in`] with a transient
/// workspace.
pub fn is_six_two_chordal(bg: &BipartiteGraph) -> bool {
    is_six_two_chordal_in(&mut Workspace::new(), bg)
}

/// [`is_six_two_chordal`] through a workspace: both recognizers run on
/// pooled scratch, so repeated classification calls stop re-allocating.
pub fn is_six_two_chordal_in(ws: &mut Workspace, bg: &BipartiteGraph) -> bool {
    is_chordal_bipartite_in(ws, bg.graph()) && sparse_six_cycle_in(ws, bg).is_none()
}

/// `true` iff some 6-cycle of `bg` has at most one chord.
pub fn has_sparse_six_cycle(bg: &BipartiteGraph) -> bool {
    find_sparse_six_cycle(bg).is_some()
}

/// Finds a concrete 6-cycle with at most one chord, as its node sequence
/// `x₁ y₁₂ x₂ y₂₃ x₃ y₃₁` — the violation witness behind a negative
/// (6,2) verdict. `None` when every 6-cycle has ≥ 2 chords.
///
/// Thin wrapper over [`find_sparse_six_cycle_in`] with a transient
/// workspace.
pub fn find_sparse_six_cycle(bg: &BipartiteGraph) -> Option<Vec<NodeId>> {
    find_sparse_six_cycle_in(&mut Workspace::new(), bg)
}

/// [`find_sparse_six_cycle`] through a workspace. The scan (module docs)
/// runs on pooled scratch; the only steady-state allocation is the
/// returned witness itself.
pub fn find_sparse_six_cycle_in(ws: &mut Workspace, bg: &BipartiteGraph) -> Option<Vec<NodeId>> {
    // lint:allow(hot-path-alloc): the witness is the function's result, not scratch.
    sparse_six_cycle_in(ws, bg).map(|c| c.to_vec())
}

/// The scan behind [`find_sparse_six_cycle_in`], returning the witness
/// by value so a warm call allocates nothing.
///
/// Only `V1`-triples that pairwise share a neighbor can carry a 6-cycle,
/// so the scan visits exactly the triangles of the projection onto `V1`
/// (its 2-section), as Gilmore's conformality scan does: for each `x₁`
/// it marks its partners (the higher `V1` nodes sharing a neighbor, from
/// [`Incidence::higher_partners_in`] on the graph read as `H²`), and for
/// each partner `x₂` walks `x₂`'s partners `x₃`, keeping the marked
/// ones. Triples come in increasing `i < j < k` order, as in a
/// scan of all triples, so the witness is the same. The per-triple set
/// algebra runs word-parallel on pooled [`mcc_graph::BitRow`] scratch:
/// each adjacency row is loaded once per loop level (a `memcpy` when
/// the graph keeps a dense bitset row for that node), and the pairwise
/// and triple connector sets are computed by whole-word AND sweeps.
pub(crate) fn sparse_six_cycle_in(ws: &mut Workspace, bg: &BipartiteGraph) -> Option<[NodeId; 6]> {
    let g = bg.graph();
    let n = g.node_count();
    let mut offsets = ws.take_usize_buf();
    let mut partners = ws.take_usize_buf();
    SideIncidence::new(bg, Side::V1).higher_partners_in(ws, &mut offsets, &mut partners);
    let mut row_i = ws.take_bit_row(n);
    let mut row_j = ws.take_bit_row(n);
    let mut row_k = ws.take_bit_row(n);
    let mut c12 = ws.take_bit_row(n);
    let mut c23 = ws.take_bit_row(n);
    let mut c31 = ws.take_bit_row(n);
    let mut c123 = ws.take_bit_row(n);

    let mut witness = None;
    'search: for x1 in bg.side_nodes(Side::V1) {
        let pi = &partners[offsets[x1.index()]..offsets[x1.index() + 1]];
        if pi.len() < 2 {
            continue; // a triple needs two partners of `x₁`
        }
        ws.begin_visit(n);
        for &j in pi {
            ws.mark(NodeId::from_index(j));
        }
        row_i.load_neighbors(g, x1);
        for &j in pi {
            let x2 = NodeId::from_index(j);
            row_j.load_neighbors(g, x2);
            c12.copy_from(&row_i);
            c12.and_with(&row_j);
            for &k in &partners[offsets[j]..offsets[j + 1]] {
                let x3 = NodeId::from_index(k);
                if !ws.is_marked(x3) {
                    continue;
                }
                // Partnership makes all three connector sets nonempty.
                row_k.load_neighbors(g, x3);
                c23.copy_from(&row_j);
                c23.and_with(&row_k);
                c31.copy_from(&row_k);
                c31.and_with(&row_i);
                c123.copy_from(&c12);
                c123.and_with(&row_k);
                let a = c12.first_andnot(&c123); // connector missing the x3 chord
                let b = c23.first_andnot(&c123); // … missing the x1 chord
                let d = c31.first_andnot(&c123); // … missing the x2 chord
                                                 // A 6-cycle with ≤ 1 chord picks two private connectors
                                                 // from different pair-sets (the third connector is then
                                                 // automatically distinct from both); the remaining slot
                                                 // takes any connector of its pair.
                let cycle = match (a, b, d) {
                    (Some(y12), Some(y23), _) => c31.first().map(|y31| (y12, y23, y31)),
                    (_, Some(y23), Some(y31)) => c12.first().map(|y12| (y12, y23, y31)),
                    (Some(y12), _, Some(y31)) => c23.first().map(|y23| (y12, y23, y31)),
                    _ => None,
                };
                if let Some((y12, y23, y31)) = cycle {
                    witness = Some([x1, y12, x2, y23, x3, y31]);
                    break 'search;
                }
            }
        }
    }
    ws.return_bit_row(c123);
    ws.return_bit_row(c31);
    ws.return_bit_row(c23);
    ws.return_bit_row(c12);
    ws.return_bit_row(row_k);
    ws.return_bit_row(row_j);
    ws.return_bit_row(row_i);
    ws.return_usize_buf(partners);
    ws.return_usize_buf(offsets);
    witness
}

/// Definitional (6,2)-chordality by full cycle enumeration (exponential;
/// ground truth for tests).
pub fn is_six_two_chordal_bruteforce(g: &Graph, limits: CycleLimits) -> bool {
    is_mn_chordal_bruteforce(g, 6, 2, limits)
}

/// Block-local (6,2) recognition: cycles never cross articulation
/// points, so a bipartite graph is (6,2)-chordal iff each biconnected
/// block is. A third independent route (after the direct scan and the
/// γ-acyclicity of `H¹`), and the natural one for block-tree-shaped
/// schemas; cross-checked against [`is_six_two_chordal`] in tests.
pub fn is_six_two_chordal_blockwise(bg: &BipartiteGraph) -> bool {
    let g = bg.graph();
    let blocks = mcc_graph::biconnected_components(g);
    for i in 0..blocks.components.len() {
        let nodes = blocks.component_nodes(i, g.node_count());
        if nodes.len() < 6 {
            continue; // no cycle of length ≥ 6 fits
        }
        let sub = mcc_graph::induced_subgraph(g, &nodes);
        let side = sub
            .to_parent
            .iter()
            .map(|&p| bg.side(p))
            .collect::<Vec<_>>();
        let sub_bg = mcc_graph::BipartiteGraph::new(sub.graph, side)
            // PROVABLY: an induced subgraph of a bipartite graph keeps a valid 2-coloring.
            .expect("induced subgraph of a bipartite graph is bipartite");
        if !is_six_two_chordal(&sub_bg) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::BipartiteGraph;

    fn bipartite(n: usize, edges: &[(usize, usize)]) -> BipartiteGraph {
        BipartiteGraph::from_graph(graph_from_edges(n, edges)).expect("test graph bipartite")
    }

    fn c6_edges() -> Vec<(usize, usize)> {
        (0..6).map(|i| (i, (i + 1) % 6)).collect()
    }

    #[test]
    fn c6_variants() {
        // Chordless C6: not even (6,1).
        let bg = bipartite(6, &c6_edges());
        assert!(!is_six_two_chordal(&bg));
        // One chord: (6,1) but not (6,2) — this is the paper's Fig. 3(c)
        // shape.
        let mut e = c6_edges();
        e.push((1, 4));
        let bg = bipartite(6, &e);
        assert!(crate::is_chordal_bipartite(bg.graph()));
        assert!(has_sparse_six_cycle(&bg));
        assert!(!is_six_two_chordal(&bg));
        // Two chords: (6,2) — Fig. 3(b) shape.
        e.push((0, 3));
        let bg = bipartite(6, &e);
        assert!(is_six_two_chordal(&bg));
    }

    #[test]
    fn trees_and_c4_are_six_two() {
        let bg = bipartite(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_six_two_chordal(&bg));
        let bg = bipartite(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(is_six_two_chordal(&bg));
    }

    #[test]
    fn complete_bipartite_is_six_two() {
        let mut edges = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                edges.push((i, 3 + j));
            }
        }
        let bg = bipartite(6, &edges);
        assert!(is_six_two_chordal(&bg));
        assert!(!has_sparse_six_cycle(&bg));
    }

    #[test]
    fn matches_definition_on_k33_subgraphs() {
        let pool: Vec<(usize, usize)> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, 3 + j)))
            .collect();
        for mask in 0u32..(1 << 9) {
            let edges: Vec<(usize, usize)> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let g = graph_from_edges(6, &edges);
            let bg = BipartiteGraph::from_graph(g.clone()).expect("bipartite");
            assert_eq!(
                is_six_two_chordal(&bg),
                is_six_two_chordal_bruteforce(&g, CycleLimits::default()),
                "mask={mask}"
            );
        }
    }

    #[test]
    fn sparse_cycle_witness_is_a_real_sparse_cycle() {
        // Sweep K3,3 subgraphs; whenever a witness is produced it must be
        // a genuine 6-cycle with at most one chord.
        let pool: Vec<(usize, usize)> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, 3 + j)))
            .collect();
        let mut witnessed = 0;
        for mask in 0u32..(1 << 9) {
            let edges: Vec<(usize, usize)> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let bg = bipartite(6, &edges);
            if let Some(c) = find_sparse_six_cycle(&bg) {
                witnessed += 1;
                let g = bg.graph();
                assert_eq!(c.len(), 6);
                let mut distinct = c.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), 6, "mask={mask}: nodes must be distinct");
                for i in 0..6 {
                    assert!(g.has_edge(c[i], c[(i + 1) % 6]), "mask={mask}: not a cycle");
                }
                let cyc = mcc_graph::Cycle(c);
                assert!(
                    mcc_graph::chords_of_cycle(g, &cyc).len() <= 1,
                    "mask={mask}: witness has too many chords"
                );
            }
        }
        assert!(witnessed > 0, "the sweep must hit sparse 6-cycles");
    }

    #[test]
    fn blockwise_agrees_with_direct_on_k33_subgraphs() {
        let pool: Vec<(usize, usize)> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, 3 + j)))
            .collect();
        for mask in 0u32..(1 << 9) {
            let edges: Vec<(usize, usize)> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let bg = bipartite(6, &edges);
            assert_eq!(
                is_six_two_chordal(&bg),
                is_six_two_chordal_blockwise(&bg),
                "mask={mask}"
            );
        }
    }

    #[test]
    fn blockwise_handles_glued_blocks() {
        // Two C4 blocks glued at a node, plus a pendant: (6,2) blockwise.
        let bg = bipartite(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 2),
                (6, 7),
            ],
        );
        assert!(is_six_two_chordal_blockwise(&bg));
        assert!(is_six_two_chordal(&bg));
    }

    #[test]
    fn eight_cycle_with_single_chord_rejected() {
        // C8 + one chord: chordal-bipartite? The chord splits C8 into C4 +
        // C6; the C6 is chordless, so not even (6,1) — and certainly the
        // sparse-six-cycle scan alone would miss nothing here because the
        // chordal-bipartite gate already fails.
        let mut e: Vec<(usize, usize)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        e.push((0, 3));
        let bg = bipartite(8, &e);
        assert!(!is_six_two_chordal(&bg));
    }
}
