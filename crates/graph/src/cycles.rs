//! Enumeration of simple cycles, and chord counting.
//!
//! The paper's chordality classes are defined by universally quantified
//! statements over **all** cycles ("every cycle of length ≥ m has at least
//! n chords", Definition 4). Production recognizers in `mcc-chordality`
//! avoid this enumeration, but the definitional predicate is indispensable
//! as ground truth in tests — so the enumerator lives here, with explicit
//! limits because the number of simple cycles can be exponential.

use crate::{Graph, NodeId, NodeSet};

/// A simple cycle given by its node sequence `v1, …, vn` (with the closing
/// arc `vn – v1` implicit). Canonical form: `v1` is the minimum node of the
/// cycle and `v2 < vn`, so each cycle is produced exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle(pub Vec<NodeId>);

impl Cycle {
    /// Length of the cycle (`n`, the number of nodes = number of arcs —
    /// Definition 4 measures cycle length that way).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the (impossible, but type-permitted) empty sequence.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Distance along the cycle between positions `i` and `j` (the shorter
    /// way around), as used in Definition 5 ("distance in the cycle").
    pub fn cycle_distance(&self, i: usize, j: usize) -> usize {
        let n = self.0.len();
        let d = i.abs_diff(j);
        d.min(n - d)
    }
}

/// Enumeration limits. Both bounds are hard caps; hitting `max_cycles`
/// makes [`enumerate_cycles`] return what was found so far (callers that
/// need exactness must ensure the instance is small enough — tests do).
#[derive(Debug, Clone, Copy)]
pub struct CycleLimits {
    /// Only cycles of length `≤ max_len` are produced.
    pub max_len: usize,
    /// Stop after this many cycles.
    pub max_cycles: usize,
}

impl Default for CycleLimits {
    fn default() -> Self {
        CycleLimits {
            max_len: usize::MAX,
            max_cycles: 1_000_000,
        }
    }
}

/// Enumerates every simple cycle of length ≥ 3 (and ≤ `limits.max_len`),
/// each exactly once in canonical form.
///
/// The algorithm roots cycles at their minimum node `r` and extends simple
/// paths using only nodes `> r`; a cycle is emitted when the path returns
/// to a neighbor of `r`, with the orientation fixed by requiring the second
/// node to be smaller than the last.
pub fn enumerate_cycles(g: &Graph, limits: CycleLimits) -> Vec<Cycle> {
    let mut out = Vec::new();
    let n = g.node_count();
    let mut on_path = NodeSet::new(n);
    let mut path: Vec<NodeId> = Vec::new();

    for r in g.nodes() {
        if out.len() >= limits.max_cycles {
            break;
        }
        path.clear();
        path.push(r);
        on_path.insert(r);
        extend(g, r, &mut path, &mut on_path, &limits, &mut out);
        on_path.remove(r);
    }
    out
}

fn extend(
    g: &Graph,
    root: NodeId,
    path: &mut Vec<NodeId>,
    on_path: &mut NodeSet,
    limits: &CycleLimits,
    out: &mut Vec<Cycle>,
) {
    if out.len() >= limits.max_cycles {
        return;
    }
    #[expect(
        clippy::expect_used,
        reason = "the recursion pushes a node before descending, so `path` is never empty here"
    )]
    let last = *path.last().expect("path never empty");
    for &u in g.neighbors(last) {
        if u == root {
            // Close the cycle: need length ≥ 3 and canonical orientation.
            if path.len() >= 3 && path[1] < path[path.len() - 1] {
                out.push(Cycle(path.clone()));
                if out.len() >= limits.max_cycles {
                    return;
                }
            }
            continue;
        }
        if u < root || on_path.contains(u) || path.len() >= limits.max_len {
            continue;
        }
        path.push(u);
        on_path.insert(u);
        extend(g, root, path, on_path, limits, out);
        on_path.remove(u);
        path.pop();
    }
}

/// The chords of `cycle` in `g`: arcs of `g` connecting non-consecutive
/// nodes of the cycle (Definition 4). Returned as index pairs into the
/// cycle's node sequence.
pub fn chords_of_cycle(g: &Graph, cycle: &Cycle) -> Vec<(usize, usize)> {
    let n = cycle.0.len();
    let mut chords = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let consecutive = j == i + 1 || (i == 0 && j == n - 1);
            if !consecutive && g.has_edge(cycle.0[i], cycle.0[j]) {
                chords.push((i, j));
            }
        }
    }
    chords
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn triangle_has_one_cycle() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let cs = enumerate_cycles(&g, CycleLimits::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].0, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn square_has_one_cycle_no_chords() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cs = enumerate_cycles(&g, CycleLimits::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 4);
        assert!(chords_of_cycle(&g, &cs[0]).is_empty());
    }

    #[test]
    fn k4_cycle_census() {
        // K4 has 4 triangles and 3 four-cycles.
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let cs = enumerate_cycles(&g, CycleLimits::default());
        let tri = cs.iter().filter(|c| c.len() == 3).count();
        let quad = cs.iter().filter(|c| c.len() == 4).count();
        assert_eq!(tri, 4);
        assert_eq!(quad, 3);
        assert_eq!(cs.len(), 7);
        // Each 4-cycle of K4 has both diagonals as chords.
        for c in cs.iter().filter(|c| c.len() == 4) {
            assert_eq!(chords_of_cycle(&g, c).len(), 2);
        }
    }

    #[test]
    fn forest_has_no_cycles() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (1, 3)]);
        assert!(enumerate_cycles(&g, CycleLimits::default()).is_empty());
    }

    #[test]
    fn max_len_limit_respected() {
        // 6-cycle with a chord: contains cycles of lengths 4, 5... depending.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let all = enumerate_cycles(&g, CycleLimits::default());
        assert_eq!(all.len(), 3); // the 6-cycle and two 4-cycles
        let small = enumerate_cycles(
            &g,
            CycleLimits {
                max_len: 4,
                max_cycles: 100,
            },
        );
        assert!(small.iter().all(|c| c.len() <= 4));
        assert_eq!(small.len(), 2);
    }

    #[test]
    fn max_cycles_limit_respected() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let cs = enumerate_cycles(
            &g,
            CycleLimits {
                max_len: usize::MAX,
                max_cycles: 2,
            },
        );
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn chord_in_six_cycle_found() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
        let cs = enumerate_cycles(&g, CycleLimits::default());
        let six: Vec<_> = cs.iter().filter(|c| c.len() == 6).collect();
        assert_eq!(six.len(), 1);
        let chords = chords_of_cycle(&g, six[0]);
        assert_eq!(chords.len(), 1);
        let (i, j) = chords[0];
        assert_eq!(six[0].cycle_distance(i, j), 3);
    }

    #[test]
    fn cycle_distance_wraps() {
        let c = Cycle((0..6).map(NodeId).collect());
        assert_eq!(c.cycle_distance(0, 5), 1);
        assert_eq!(c.cycle_distance(0, 3), 3);
        assert_eq!(c.cycle_distance(1, 5), 2);
        assert!(!c.is_empty());
    }
}
