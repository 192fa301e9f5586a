//! Vᵢ-chordality (Definition 5).
//!
//! `G` is Vᵢ-chordal when every cycle of length ≥ 8 admits a **witness**
//! node `w ∈ Vᵢ` adjacent to at least two cycle nodes whose distance *in
//! the cycle* is ≥ 4 (see the crate docs for how the OCR-damaged
//! subscripts were disambiguated). The production recognizer uses Fact (a)
//! from the proof of Theorem 1: `G` is Vᵢ-chordal iff the projection of
//! `G` onto `V_{3-i}` (the primal graph of the hypergraph whose edges
//! come from `Vᵢ`) is chordal.

use crate::is_chordal;
use crate::projection::project_csr;
use mcc_graph::{chords_of_cycle, enumerate_cycles, BipartiteGraph, CsrRef, CycleLimits, Side};

/// Production Vᵢ-chordality test: chordality of the projection of `bg`
/// onto the side opposite the witness side. The projection is an
/// unlabelled CSR (no labels, no `Graph`), and the linear MCS + PEO
/// check runs on it directly.
pub fn is_vi_chordal(bg: &BipartiteGraph, witness_side: Side) -> bool {
    let (offsets, targets) = project_csr(bg, witness_side.opposite());
    is_chordal(&CsrRef::new(&offsets, &targets))
}

/// Definitional Vᵢ-chordality: enumerate cycles of length ≥ 8 and look
/// for witnesses. Exponential; ground truth for tests.
///
/// # Panics
/// Panics if the cycle enumeration cap in `limits` is hit.
pub fn is_vi_chordal_bruteforce(
    bg: &BipartiteGraph,
    witness_side: Side,
    limits: CycleLimits,
) -> bool {
    let g = bg.graph();
    let cycles = enumerate_cycles(g, limits);
    assert!(
        cycles.len() < limits.max_cycles,
        "cycle enumeration cap hit; instance too large for the definitional check"
    );
    cycles.iter().filter(|c| c.len() >= 8).all(|c| {
        // Some w ∈ witness side adjacent to two cycle nodes at
        // cycle-distance ≥ 4. (Such cycle nodes necessarily lie on the
        // opposite side; a witness may itself lie on the cycle.)
        bg.side_nodes(witness_side).any(|w| {
            let on_cycle: Vec<usize> = (0..c.len()).filter(|&i| g.has_edge(w, c.0[i])).collect();
            on_cycle.iter().enumerate().any(|(a, &i)| {
                on_cycle[a + 1..]
                    .iter()
                    .any(|&j| c.cycle_distance(i, j) >= 4)
            })
        })
    })
}

/// Convenience: the chord-in-cycle count used in several tests (kept here
/// so callers need not re-derive the pairing).
pub fn max_chordless_cycle_len(g: &mcc_graph::Graph, limits: CycleLimits) -> Option<usize> {
    enumerate_cycles(g, limits)
        .iter()
        .filter(|c| chords_of_cycle(g, c).is_empty())
        .map(|c| c.len())
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::bipartite::bipartite_from_lists;
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::BipartiteGraph;

    fn lim() -> CycleLimits {
        CycleLimits::default()
    }

    #[test]
    fn c8_is_not_v_chordal_either_side() {
        let g = graph_from_edges(8, &(0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>());
        let bg = BipartiteGraph::from_graph(g).expect("even cycle");
        for side in [Side::V1, Side::V2] {
            assert!(!is_vi_chordal(&bg, side));
            assert!(!is_vi_chordal_bruteforce(&bg, side, lim()));
        }
    }

    #[test]
    fn c6_is_vacuously_v_chordal() {
        // No cycle of length ≥ 8 exists.
        let g = graph_from_edges(6, &(0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        let bg = BipartiteGraph::from_graph(g).expect("even cycle");
        for side in [Side::V1, Side::V2] {
            assert!(is_vi_chordal(&bg, side));
            assert!(is_vi_chordal_bruteforce(&bg, side, lim()));
        }
    }

    #[test]
    fn star_hub_makes_v2_chordal() {
        // V1 = {x1..x4} in a chordless 8-cycle with V2 = {y1..y4}, plus a
        // hub y0 ∈ V2 adjacent to every xᵢ: the hub shortcuts every long
        // cycle, so the graph is V2-chordal; V1 has no such witness, and
        // indeed the graph is not V1-chordal.
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3", "x4"],
            &["y1", "y2", "y3", "y4", "y0"],
            &[
                (0, 0),
                (1, 0), // x1-y1-x2
                (1, 1),
                (2, 1), // x2-y2-x3
                (2, 2),
                (3, 2), // x3-y3-x4
                (3, 3),
                (0, 3), // x4-y4-x1
                (0, 4),
                (1, 4),
                (2, 4),
                (3, 4), // hub
            ],
        );
        assert!(is_vi_chordal(&bg, Side::V2));
        assert!(is_vi_chordal_bruteforce(&bg, Side::V2, lim()));
        assert!(!is_vi_chordal(&bg, Side::V1));
        assert!(!is_vi_chordal_bruteforce(&bg, Side::V1, lim()));
    }

    #[test]
    fn production_matches_definition_on_eight_node_pool() {
        // An 8-cycle plus four bipartite chords; 2^12 edge subsets. Cycles
        // of length 8 actually occur here, unlike on 6-node pools.
        let mut pool: Vec<(usize, usize)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        pool.extend([(0, 3), (0, 5), (1, 4), (2, 7)]);
        for mask in 0u32..(1 << pool.len()) {
            let edges: Vec<(usize, usize)> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let g = graph_from_edges(8, &edges);
            let bg = BipartiteGraph::from_graph(g).expect("bipartite");
            for side in [Side::V1, Side::V2] {
                assert_eq!(
                    is_vi_chordal(&bg, side),
                    is_vi_chordal_bruteforce(&bg, side, lim()),
                    "side={side:?} mask={mask}"
                );
            }
        }
    }

    #[test]
    fn max_chordless_cycle_reports() {
        let g = graph_from_edges(6, &(0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        assert_eq!(max_chordless_cycle_len(&g, lim()), Some(6));
        let tree = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(max_chordless_cycle_len(&tree, lim()), None);
    }
}
