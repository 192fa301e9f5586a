//! Seeded differential sweep of the pruned Gilmore scan
//! ([`find_conformality_violation`]) against the clique-enumeration
//! definition ([`is_conformal_bruteforce`]) and against the dense
//! all-triples form of Gilmore's criterion, whose first violation (in
//! lexicographic triple order) the pruned scan must return unchanged.
//!
//! The generator deliberately produces the shapes the pruning lemma
//! reasons about: duplicate edges, nested edges, singleton edges, pair
//! edges (which close uncovered triangles), the empty hypergraph, and
//! node universes wider than one 64-bit word.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_graph::NodeSet;
use mcc_hypergraph::{
    find_conformality_violation, is_conformal_bruteforce, primal_graph, EdgeId, Hypergraph,
    HypergraphBuilder,
};

const CASES: u64 = 20_000;

/// SplitMix64: a tiny seeded generator, so the sweep needs no RNG crate
/// and every case is reproducible from its index.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One random hypergraph. Every 50th case spans 60–80 nodes so the edge
/// bitsets cross a word boundary; the rest have at most 8 nodes and 9
/// edges, where uncovered cliques are common.
fn random_hypergraph(case: u64) -> Hypergraph {
    let mut r = Rng(case);
    let (n, m, max_size) = if case % 50 == 49 {
        (60 + r.below(21), 8 + r.below(13), 8)
    } else {
        let n = r.below(9);
        (n, if n == 0 { 0 } else { r.below(10) }, n)
    };
    let mut b = HypergraphBuilder::new();
    let nodes: Vec<_> = (0..n).map(|i| b.add_node(format!("n{i}"))).collect();
    let mut edges: Vec<Vec<usize>> = Vec::new();
    for _ in 0..m {
        let members: Vec<usize> = match r.below(10) {
            // Duplicate of an earlier edge.
            0 if !edges.is_empty() => edges[r.below(edges.len())].clone(),
            // Nested: a nonempty part of an earlier edge.
            1 if !edges.is_empty() => {
                let parent = &edges[r.below(edges.len())];
                let mut part: Vec<usize> =
                    parent.iter().copied().filter(|_| r.below(2) == 0).collect();
                if part.is_empty() {
                    part.push(parent[0]);
                }
                part
            }
            // Singleton.
            2 => vec![r.below(n)],
            // Pairs close triangles no edge covers.
            3..=5 => vec![r.below(n), r.below(n)],
            _ => (0..1 + r.below(max_size)).map(|_| r.below(n)).collect(),
        };
        b.add_edge(
            format!("e{}", edges.len()),
            members.iter().map(|&i| nodes[i]),
        )
        .expect("members are nonempty and in range");
        edges.push(members);
    }
    b.build()
}

/// Gilmore's criterion checked literally over every triple `i < j < k`:
/// the witness of the lexicographically first violation.
fn dense_gilmore_witness(h: &Hypergraph) -> Option<NodeSet> {
    let m = h.edge_count();
    let e = |i: usize| h.edge(EdgeId::from_index(i));
    for i in 0..m {
        for j in (i + 1)..m {
            for k in (j + 1)..m {
                let mut need = e(i).intersection(e(j));
                need.union_with(&e(i).intersection(e(k)));
                need.union_with(&e(j).intersection(e(k)));
                if !h.edge_ids().any(|f| need.is_subset_of(h.edge(f))) {
                    return Some(need);
                }
            }
        }
    }
    None
}

#[test]
fn pruned_scan_matches_bruteforce_and_dense_witness() {
    let mut violations = 0;
    let mut wide = 0;
    for case in 0..CASES {
        let h = random_hypergraph(case);
        let found = find_conformality_violation(&h);
        assert_eq!(
            found.is_none(),
            is_conformal_bruteforce(&h),
            "case {case}: verdict differs from clique enumeration\n{h:?}"
        );
        assert_eq!(
            found,
            dense_gilmore_witness(&h),
            "case {case}: witness differs from the dense criterion\n{h:?}"
        );
        let Some(w) = found else { continue };
        violations += 1;
        if h.node_count() > 64 {
            wide += 1;
        }
        // A clique of the primal graph that lies in no edge.
        let g = primal_graph(&h);
        let members = w.to_vec();
        assert!(members.len() >= 2, "case {case}: witness {w:?} too small");
        for (a, &u) in members.iter().enumerate() {
            for &v in &members[a + 1..] {
                assert!(g.has_edge(u, v), "case {case}: {u:?}, {v:?} never co-occur");
            }
        }
        assert!(
            !h.edge_ids().any(|e| w.is_subset_of(h.edge(e))),
            "case {case}: witness {w:?} is covered"
        );
    }
    assert!(
        violations >= 1_500,
        "only {violations} non-conformal cases in {CASES}"
    );
    assert!(
        wide >= 40,
        "only {wide} non-conformal cases beyond 64 nodes"
    );
}
