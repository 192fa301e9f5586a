//! Good orderings (Definition 11) and the machinery behind Corollary 5
//! and Theorem 6.
//!
//! An ordering of the nodes of a bipartite graph is **good** when, for
//! *every* terminal set `P̄`, greedily eliminating redundant nodes along
//! the ordering (Algorithm 2 with that scan order) yields a **minimum**
//! cover of `P̄`. Corollary 5: on (6,2)-chordal graphs every ordering is
//! good. Theorem 6: there is a (6,1)-chordal graph (the paper's Fig. 11)
//! on which **no** ordering is good.
//!
//! The greedy elimination is [`algorithm2()`] itself, run with the
//! ordering as its scan order; the checks here compare what it keeps
//! with the brute-force minimum cover.

use crate::{algorithm2, cover::minimum_cover_bruteforce};
use mcc_graph::{CancelToken, Graph, NodeId, NodeSet, Workspace};

/// Greedy elimination along `order` for terminal set `terminals`:
/// [`algorithm2()`] with an explicit scan order, returning the surviving
/// cover (`None` if the terminals are disconnected).
fn greedy_cover(g: &Graph, order: &[NodeId], terminals: &NodeSet) -> Option<NodeSet> {
    let token = CancelToken::unbounded();
    let tree = algorithm2(&mut Workspace::new(), g, terminals, order, &token).ok()?;
    Some(tree.nodes)
}

/// `true` iff `order` is good **for the given terminal set**: the greedy
/// elimination produces a cover with as few nodes as the brute-force
/// minimum. (Definition 11 quantifies over all terminal sets; see
/// [`is_good_ordering_exhaustive`].)
pub fn is_good_ordering_for(g: &Graph, order: &[NodeId], terminals: &NodeSet) -> bool {
    match (
        greedy_cover(g, order, terminals),
        minimum_cover_bruteforce(g, terminals),
    ) {
        (Some(got), Some(min)) => got.len() == min.len(),
        (None, None) => true,
        _ => false,
    }
}

/// Exhaustive Definition 11: `order` is good iff it is good for **every**
/// nonempty terminal set whose members share a component. Exponential in
/// the node count (`2^n` terminal sets, each with a brute-force minimum);
/// usable up to ~12 nodes — enough for Fig. 11.
pub fn is_good_ordering_exhaustive(g: &Graph, order: &[NodeId]) -> bool {
    find_bad_terminal_set(g, order).is_none()
}

/// The witness version: the first terminal set (in mask order) for which
/// `order` fails to produce a minimum cover.
pub fn find_bad_terminal_set(g: &Graph, order: &[NodeId]) -> Option<NodeSet> {
    let n = g.node_count();
    assert!(n <= 16, "exhaustive good-ordering check is for tiny graphs");
    for mask in 1u32..(1 << n) {
        let terminals = NodeSet::from_nodes(
            n,
            (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(NodeId::from_index),
        );
        // Only feasible sets constrain the ordering.
        let Some(got) = greedy_cover(g, order, &terminals) else {
            continue;
        };
        #[expect(
            clippy::expect_used,
            reason = "feasibility was established above, so a minimum cover exists"
        )]
        let min =
            minimum_cover_bruteforce(g, &terminals).expect("feasible set has a minimum cover");
        if got.len() != min.len() {
            return Some(terminals);
        }
    }
    None
}

/// Fully exhaustive Definition 11 landscape for **tiny** graphs: checks
/// every permutation of the nodes (`n!`), classifying each as good or
/// not. Returns `(good_count, bad_count)`.
///
/// `n ≤ 7` enforced (5040 orderings × 2ⁿ terminal sets each). Corollary 5
/// predicts `bad_count = 0` on (6,2)-chordal graphs; Theorem 6 exhibits a
/// 12-node graph with `good_count = 0` (too big for this function — the
/// Fig. 11 analysis goes through the proof's case split instead).
pub fn ordering_landscape(g: &Graph) -> (usize, usize) {
    let n = g.node_count();
    assert!(
        n <= 7,
        "ordering landscape enumerates n! orderings; n ≤ 7 only"
    );
    let mut good = 0;
    let mut bad = 0;
    let mut order: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    permute(&mut order, 0, &mut |perm| {
        if is_good_ordering_exhaustive(g, perm) {
            good += 1;
        } else {
            bad += 1;
        }
    });
    (good, bad)
}

fn permute(xs: &mut [NodeId], k: usize, visit: &mut impl FnMut(&[NodeId])) {
    if k == xs.len() {
        visit(xs);
        return;
    }
    for i in k..xs.len() {
        xs.swap(k, i);
        permute(xs, k + 1, visit);
        xs.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::builder::graph_from_edges;

    #[test]
    fn landscape_all_good_on_six_two_graphs() {
        // C4 plus pendant — (6,2)-chordal, so Corollary 5 demands a
        // spotless landscape over all 120 orderings.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]);
        let (good, bad) = ordering_landscape(&g);
        assert_eq!(bad, 0, "Corollary 5 violated");
        assert_eq!(good, 120);
    }

    #[test]
    fn landscape_mixed_on_six_one_graph() {
        // C6 + one chord: only (6,1). Some orderings fail (the chord
        // endpoint first), some succeed — the class where orderings start
        // to matter but good ones still exist.
        let mut e: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        e.push((1, 4));
        let g = graph_from_edges(6, &e);
        let (good, bad) = ordering_landscape(&g);
        assert!(bad > 0, "bad orderings must exist off (6,2)");
        assert!(good > 0, "this small graph still has good orderings");
        assert_eq!(good + bad, 720);
    }

    #[test]
    fn all_orderings_good_on_a_square() {
        // C4 is (6,2)-chordal; Corollary 5 says every ordering is good.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for order in permutations(4) {
            let order: Vec<NodeId> = order.into_iter().map(|i| NodeId(i as u32)).collect();
            assert!(is_good_ordering_exhaustive(&g, &order), "{order:?}");
        }
    }

    #[test]
    fn bad_ordering_on_a_six_cycle_with_one_chord() {
        // Fig. 3(c)-shaped: C6 with one chord is only (6,1). Ordering that
        // eliminates the chord's endpoint first can strand the greedy on
        // the long way around.
        let mut e: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        e.push((1, 4)); // chord
        let g = graph_from_edges(6, &e);
        // Terminals {0, 2}: minimum cover is {0,1,2}. Eliminating node 1
        // first forces the 5-node detour 0-5-4-3-2.
        let terminals = NodeSet::from_nodes(6, [NodeId(0), NodeId(2)]);
        let bad_first: Vec<NodeId> = [1, 0, 2, 3, 4, 5].map(NodeId).to_vec();
        assert!(!is_good_ordering_for(&g, &bad_first, &terminals));
        let good_first: Vec<NodeId> = [3, 4, 5, 0, 1, 2].map(NodeId).to_vec();
        assert!(is_good_ordering_for(&g, &good_first, &terminals));
    }

    #[test]
    fn witness_extraction_matches_predicate() {
        let mut e: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        e.push((1, 4));
        let g = graph_from_edges(6, &e);
        let bad_first: Vec<NodeId> = [1, 0, 2, 3, 4, 5].map(NodeId).to_vec();
        let witness = find_bad_terminal_set(&g, &bad_first);
        assert!(witness.is_some());
        assert!(!is_good_ordering_exhaustive(&g, &bad_first));
        let w = witness.unwrap();
        assert!(!is_good_ordering_for(&g, &bad_first, &w));
    }

    #[test]
    fn infeasible_sets_do_not_disqualify() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let order: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert!(is_good_ordering_exhaustive(&g, &order));
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for i in 0..=p.len() {
                let mut q = p.clone();
                q.insert(i, n - 1);
                out.push(q);
            }
        }
        out
    }
}
