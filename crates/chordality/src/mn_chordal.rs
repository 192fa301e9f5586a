//! The literal Definition 4 predicate, and the (4,1)-bipartite case.

use mcc_graph::{chords_of_cycle, enumerate_cycles, CycleLimits, Graph, NodeSet};

/// Definitional `(m, n)`-chordality: every cycle of length ≥ `m` has at
/// least `n` chords.
///
/// Enumerates **all** simple cycles — exponential. This is the ground
/// truth the polynomial recognizers are tested against; `limits` guards
/// accidental use on big inputs (the function panics when the cycle cap is
/// hit, rather than returning a wrong answer).
pub fn is_mn_chordal_bruteforce(g: &Graph, m: usize, n: usize, limits: CycleLimits) -> bool {
    let cycles = enumerate_cycles(g, limits);
    assert!(
        cycles.len() < limits.max_cycles,
        "cycle enumeration cap hit; instance too large for the definitional check"
    );
    cycles
        .iter()
        .filter(|c| c.len() >= m)
        .all(|c| chords_of_cycle(g, c).len() >= n)
}

/// `true` iff `g` is a forest — which for bipartite graphs is exactly
/// (4,1)-chordality (Theorem 1(i): a bipartite graph has no odd cycles and
/// its 4-cycles cannot have chords, so "every cycle ≥ 4 has a chord"
/// collapses to "no cycles at all").
///
/// `m + c = n` with the `c` components counted by one search, whose
/// marks and stack are sized from `n` up front.
pub fn is_forest(g: &Graph) -> bool {
    let n = g.node_count();
    if g.edge_count() >= n {
        return n == 0 && g.edge_count() == 0;
    }
    let mut seen = NodeSet::new(n);
    let mut stack = Vec::with_capacity(n);
    let mut components = 0;
    for root in g.nodes() {
        if !seen.insert(root) {
            continue;
        }
        components += 1;
        stack.push(root);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if seen.insert(u) {
                    stack.push(u);
                }
            }
        }
    }
    g.edge_count() + components == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;

    fn c(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    #[test]
    fn forest_detection() {
        assert!(is_forest(&graph_from_edges(4, &[(0, 1), (1, 2), (1, 3)])));
        assert!(is_forest(&graph_from_edges(3, &[])));
        assert!(!is_forest(&graph_from_edges(3, &c(3))));
        assert!(is_forest(&graph_from_edges(0, &[])));
    }

    #[test]
    fn forest_equals_41_on_bipartite_examples() {
        let lim = CycleLimits::default();
        let tree = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_forest(&tree));
        assert!(is_mn_chordal_bruteforce(&tree, 4, 1, lim));
        let square = graph_from_edges(4, &c(4));
        assert!(!is_forest(&square));
        assert!(!is_mn_chordal_bruteforce(&square, 4, 1, lim));
    }

    #[test]
    fn six_cycle_chord_counting() {
        let lim = CycleLimits::default();
        // C6: one cycle of length 6, zero chords.
        let c6 = graph_from_edges(6, &c(6));
        assert!(!is_mn_chordal_bruteforce(&c6, 6, 1, lim));
        assert!(is_mn_chordal_bruteforce(&c6, 8, 1, lim)); // vacuous
                                                           // C6 + one chord: (6,1) holds, (6,2) fails.
        let mut e = c(6);
        e.push((0, 3));
        let g = graph_from_edges(6, &e);
        assert!(is_mn_chordal_bruteforce(&g, 6, 1, lim));
        assert!(!is_mn_chordal_bruteforce(&g, 6, 2, lim));
    }

    #[test]
    #[should_panic(expected = "cap hit")]
    fn cap_panics_rather_than_lying() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let _ = is_mn_chordal_bruteforce(
            &g,
            4,
            1,
            CycleLimits {
                max_len: 10,
                max_cycles: 2,
            },
        );
    }
}
