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
//! `V1` — need it (`sparse_six_cycle`).
//!
//! This is the one (6,2) route. Tests hold it to the literal Definition 4
//! predicate ([`is_six_two_chordal_bruteforce`]) on every subgraph of
//! `K(3,3)` here and on every 4+4 bipartite graph in the exhaustive
//! classification suite.

use crate::{is_chordal_bipartite, is_mn_chordal_bruteforce};
use mcc_graph::words::{and_into, bits, first_andnot};
use mcc_graph::{BipartiteGraph, CycleLimits, Graph, NodeId, Side};
use mcc_hypergraph::{Incidence, SideIncidence};

/// Production (6,2)-chordality recognizer. See module docs.
pub fn is_six_two_chordal(bg: &BipartiteGraph) -> bool {
    is_chordal_bipartite(bg.graph()) && sparse_six_cycle(bg).is_none()
}

/// Finds a concrete 6-cycle with at most one chord, as its node sequence
/// `x₁ y₁₂ x₂ y₂₃ x₃ y₃₁` — the violation witness behind a negative
/// (6,2) verdict. `None` when every 6-cycle has ≥ 2 chords.
pub fn find_sparse_six_cycle(bg: &BipartiteGraph) -> Option<Vec<NodeId>> {
    sparse_six_cycle(bg).map(|c| c.to_vec())
}

/// The scan behind [`find_sparse_six_cycle`], returning the witness by
/// value.
///
/// Only `V1`-triples that pairwise share a neighbor can carry a 6-cycle,
/// so the scan visits exactly the triangles of the projection onto `V1`
/// (its 2-section), as Gilmore's conformality scan does: for each `x₁`
/// it marks its partners (the higher `V1` nodes sharing a neighbor, from
/// [`Incidence::higher_partners`] on the graph read as `H²`), and for
/// each partner `x₂` walks `x₂`'s partners `x₃`, keeping the marked
/// ones; the marks of `x₁` are cleared through its own partner list.
/// Triples come in increasing `i < j < k` order, as in a scan of all
/// triples, so the witness is the same. The per-triple set algebra runs
/// word-parallel on seven word rows ([`mcc_graph::words`]), allocated
/// once per scan: each adjacency row is loaded once per loop level, and the
/// pairwise and triple connector sets are computed by whole-word AND
/// sweeps.
pub(crate) fn sparse_six_cycle(bg: &BipartiteGraph) -> Option<[NodeId; 6]> {
    let g = bg.graph();
    let n = g.node_count();
    let (mut offsets, mut partners) = (Vec::new(), Vec::new());
    SideIncidence::new(bg, Side::V1).higher_partners(&mut offsets, &mut partners);
    let mut marked = vec![false; n];
    let row = || vec![0u64; n.div_ceil(64)];
    let (mut row_i, mut row_j, mut row_k) = (row(), row(), row());
    let (mut c12, mut c23, mut c31, mut c123) = (row(), row(), row(), row());
    let load = |row: &mut [u64], v: NodeId| {
        row.fill(0);
        g.or_neighbors_into(v, row);
    };

    for x1 in bg.side_nodes(Side::V1) {
        let pi = &partners[offsets[x1.index()]..offsets[x1.index() + 1]];
        if pi.len() < 2 {
            continue; // a triple needs two partners of `x₁`
        }
        for &j in pi {
            marked[j] = true;
        }
        load(&mut row_i, x1);
        for &j in pi {
            let x2 = NodeId::from_index(j);
            load(&mut row_j, x2);
            and_into(&mut c12, &row_i, &row_j);
            for &k in &partners[offsets[j]..offsets[j + 1]] {
                if !marked[k] {
                    continue;
                }
                let x3 = NodeId::from_index(k);
                // Partnership makes all three connector sets nonempty.
                load(&mut row_k, x3);
                and_into(&mut c23, &row_j, &row_k);
                and_into(&mut c31, &row_k, &row_i);
                and_into(&mut c123, &c12, &row_k);
                let a = first_andnot(&c12, &c123); // connector missing the x3 chord
                let b = first_andnot(&c23, &c123); // … missing the x1 chord
                let d = first_andnot(&c31, &c123); // … missing the x2 chord

                // A 6-cycle with ≤ 1 chord picks two private connectors
                // from different pair-sets (the third connector is then
                // automatically distinct from both); the remaining slot
                // takes any connector of its pair.
                let cycle = match (a, b, d) {
                    (Some(y12), Some(y23), _) => bits(&c31).next().map(|y31| (y12, y23, y31)),
                    (_, Some(y23), Some(y31)) => bits(&c12).next().map(|y12| (y12, y23, y31)),
                    (Some(y12), _, Some(y31)) => bits(&c23).next().map(|y23| (y12, y23, y31)),
                    _ => None,
                };
                if let Some((y12, y23, y31)) = cycle {
                    return Some([x1, y12, x2, y23, x3, y31]);
                }
            }
        }
        for &j in pi {
            marked[j] = false;
        }
    }
    None
}

/// Definitional (6,2)-chordality by full cycle enumeration (exponential;
/// ground truth for tests).
pub fn is_six_two_chordal_bruteforce(g: &Graph, limits: CycleLimits) -> bool {
    is_mn_chordal_bruteforce(g, 6, 2, limits)
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
        assert!(find_sparse_six_cycle(&bg).is_some());
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
        assert!(find_sparse_six_cycle(&bg).is_none());
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
    fn glued_c4_blocks_are_six_two() {
        // Two C4 blocks glued at a node, plus a pendant: no cycle of
        // length ≥ 6 crosses the cut node, so the graph is (6,2).
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
