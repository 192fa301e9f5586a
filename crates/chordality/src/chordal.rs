//! Chordal ((4,1)-chordal, "triangulated") graph recognition.

use crate::{is_perfect_elimination_ordering, mcs_order};
use mcc_graph::{Adjacency, Graph};

/// `true` iff `g` is a chordal graph (every cycle of length ≥ 4 has a
/// chord).
///
/// Recognition runs maximum cardinality search and verifies that the
/// reverse order is a perfect elimination ordering — the
/// Tarjan–Yannakakis method the paper cites as reference \[12\]. Runs on
/// any [`Adjacency`], including the unlabelled side projections the
/// Vᵢ-chordality recognizer builds.
pub fn is_chordal<G: Adjacency + ?Sized>(g: &G) -> bool {
    let mut order = mcs_order(g);
    order.reverse();
    let ok = is_perfect_elimination_ordering(g, &order);
    // Certificate cross-check (debug builds only): the deferred Golumbic
    // verdict must agree with the literal all-pairs PEO definition.
    debug_assert!(
        g.node_count() > crate::check::CHECK_PEO_MAX_NODES
            || ok == crate::check::check_peo(g, &order),
        "deferred PEO check disagrees with the definitional certificate (MCS order)"
    );
    ok
}

/// Extracts a **chordless cycle of length ≥ 4** from a non-chordal
/// graph — the certificate behind a negative [`is_chordal`] verdict.
/// Returns `None` when `g` is chordal.
///
/// Method: every chordless cycle contains a node `v` whose two cycle
/// neighbors `u, w` are non-adjacent, with the rest of the cycle avoiding
/// `N[v]`; conversely, for any such triple, a **shortest** `u–w` path in
/// `G − (N[v] ∖ {u, w}) − v` is induced, so `v + path` is a chordless
/// cycle. Scanning all such triples with BFS finds one whenever the graph
/// is not chordal.
#[expect(
    clippy::unreachable,
    reason = "callers only reach the end with a non-chordal graph, and every non-chordal graph contains a chordless cycle the scan returns"
)]
pub fn find_chordless_cycle(g: &Graph) -> Option<Vec<mcc_graph::NodeId>> {
    use mcc_graph::{shortest_path, NodeSet};
    if is_chordal(g) {
        return None;
    }
    let n = g.node_count();
    for v in g.nodes() {
        let nbrs = g.neighbors(v);
        for (i, &u) in nbrs.iter().enumerate() {
            for &w in &nbrs[i + 1..] {
                if g.has_edge(u, w) {
                    continue;
                }
                // Alive = everything except v and N(v) \ {u, w}.
                let mut alive = NodeSet::full(n);
                alive.remove(v);
                for &x in nbrs {
                    if x != u && x != w {
                        alive.remove(x);
                    }
                }
                if let Some(path) = shortest_path(g, &alive, u, w) {
                    let mut cycle = vec![v];
                    cycle.extend(path);
                    debug_assert!(cycle.len() >= 4);
                    return Some(cycle);
                }
            }
        }
    }
    unreachable!("a non-chordal graph always yields a chordless-cycle witness")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::{chords_of_cycle, enumerate_cycles, CycleLimits};

    #[test]
    fn chordless_cycle_witness_is_genuine() {
        let pool = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 2),
            (1, 3),
            (2, 4),
        ];
        let mut witnessed = 0;
        for mask in 0u32..(1 << pool.len()) {
            let edges: Vec<(usize, usize)> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let g = graph_from_edges(5, &edges);
            match find_chordless_cycle(&g) {
                None => assert!(is_chordal(&g), "mask={mask:#b}"),
                Some(c) => {
                    witnessed += 1;
                    assert!(!is_chordal(&g), "mask={mask:#b}");
                    assert!(c.len() >= 4);
                    for i in 0..c.len() {
                        assert!(g.has_edge(c[i], c[(i + 1) % c.len()]), "mask={mask:#b}");
                    }
                    let cyc = mcc_graph::Cycle(c);
                    assert!(
                        chords_of_cycle(&g, &cyc).is_empty(),
                        "mask={mask:#b}: witness must be chordless"
                    );
                }
            }
        }
        assert!(witnessed > 0);
    }

    /// Ground truth straight from Definition 4.
    fn is_chordal_bruteforce(g: &Graph) -> bool {
        enumerate_cycles(g, CycleLimits::default())
            .iter()
            .filter(|c| c.len() >= 4)
            .all(|c| !chords_of_cycle(g, c).is_empty())
    }

    #[test]
    fn forests_and_cliques_are_chordal() {
        let forest = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert!(is_chordal(&forest));
        let k4 = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!(is_chordal(&k4));
        let empty = graph_from_edges(0, &[]);
        assert!(is_chordal(&empty));
    }

    #[test]
    fn cycles_without_chords_are_not() {
        for n in 4..=8 {
            let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let g = graph_from_edges(n, &edges);
            assert!(!is_chordal(&g), "C{n} misclassified");
            assert!(!is_chordal_bruteforce(&g));
        }
    }

    #[test]
    fn triangulated_hexagon_is_chordal() {
        // Fan triangulation of C6 from node 0.
        let g = graph_from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 2),
                (0, 3),
                (0, 4),
            ],
        );
        assert!(is_chordal(&g));
        assert!(is_chordal_bruteforce(&g));
    }

    #[test]
    fn hexagon_with_one_long_chord_is_not_chordal() {
        // C6 + one chord leaves a chordless C4.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        assert!(!is_chordal(&g));
        assert!(!is_chordal_bruteforce(&g));
    }

    #[test]
    fn matches_bruteforce_on_a_batch_of_small_graphs() {
        // All graphs on 5 nodes with edges from a fixed pool, enumerated by
        // bitmask — a deterministic mini-exhaustive cross-check, on the
        // 7-edge pool and on the 8-edge pool that adds the diagonal (2, 4).
        let pool = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 2),
            (1, 3),
            (2, 4),
        ];
        for pool in [&pool[..7], &pool[..]] {
            for mask in 0u32..(1 << pool.len()) {
                let edges: Vec<(usize, usize)> = pool
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &e)| e)
                    .collect();
                let g = graph_from_edges(5, &edges);
                assert_eq!(is_chordal(&g), is_chordal_bruteforce(&g), "mask={mask:#b}");
            }
        }
    }
}
