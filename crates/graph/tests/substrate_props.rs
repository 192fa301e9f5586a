//! Property tests for the graph substrate: set-algebra laws, traversal
//! invariants, spanning trees, the cycle enumerator's self-consistency,
//! and the hashed label lookup against a scan of the labels. Everything
//! downstream leans on these primitives.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]
#![allow(
    clippy::needless_range_loop,
    reason = "index loops mirror the naive adjacency model they check against"
)]

use mcc_graph::{
    bfs_distances, bfs_order, bfs_order_in, check_adjacency_symmetric, chords_of_cycle,
    connected_components, dfs_order, enumerate_cycles, induced_subgraph, is_connected_within,
    remove_if_redundant_in, shortest_path, spanning_tree, terminal_blocks_in, terminals_connected,
    terminals_connected_in, BipartiteGraph, CycleLimits, Graph, GraphBuilder, NodeId, NodeSet,
    Side, Workspace, INFINITE_DISTANCE,
};
use proptest::prelude::*;

/// A random graph on ≤ 8 nodes with independent edges.
fn small_graph() -> impl Strategy<Value = Graph> {
    (2usize..=8)
        .prop_flat_map(|n| {
            proptest::collection::vec(proptest::bool::ANY, n * (n - 1) / 2)
                .prop_map(move |coins| (n, coins))
        })
        .prop_map(|(n, coins)| {
            let mut b = GraphBuilder::with_nodes(n);
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if coins[k] {
                        b.add_edge(NodeId::from_index(i), NodeId::from_index(j))
                            .expect("in range");
                    }
                    k += 1;
                }
            }
            b.build()
        })
}

/// A random node subset of a graph.
fn graph_with_set() -> impl Strategy<Value = (Graph, NodeSet)> {
    small_graph().prop_flat_map(|g| {
        let n = g.node_count();
        proptest::collection::vec(proptest::bool::ANY, n).prop_map(move |coins| {
            let s = NodeSet::from_nodes(
                n,
                coins
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c)
                    .map(|(i, _)| NodeId::from_index(i)),
            );
            (g.clone(), s)
        })
    })
}

/// A node count plus a messy edge list: duplicates, both orientations,
/// self-loop attempts — everything `GraphBuilder::build` must clean up.
fn messy_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..=8).prop_flat_map(|n| {
        proptest::collection::vec((0usize..n, 0usize..n), 0..=40).prop_map(move |pairs| (n, pairs))
    })
}

/// Label stems: the empty label, multi-byte UTF-8, and stems that agree
/// in their first eight bytes (the lookup hashes eight bytes at a time).
const LABEL_STEMS: [&str; 10] = [
    "",
    "a",
    "R1",
    "é",
    "日本語",
    "ünïcödé-ß",
    "attribute",
    "attribute_1",
    "attribute_2",
    "attributé",
];

/// A bipartite graph of 0–150 nodes (so below and above 64) whose labels
/// are stems with an optional numeric suffix, duplicates common: node
/// `v` is on `V1` when `v` is even, and the edges join the two parities.
fn labelled_graph() -> impl Strategy<Value = BipartiteGraph> {
    (0usize..=150).prop_flat_map(|n| {
        (
            proptest::collection::vec((0usize..LABEL_STEMS.len(), 0usize..4), n),
            proptest::collection::vec((0usize..n.max(1), 0usize..n.max(1)), 0..=2 * n),
        )
            .prop_map(move |(labels, pairs)| {
                let mut b = GraphBuilder::new();
                for (stem, suffix) in labels {
                    match suffix {
                        0 => b.add_node(LABEL_STEMS[stem]),
                        k => b.add_node(format!("{}{k}", LABEL_STEMS[stem])),
                    };
                }
                for (x, y) in pairs {
                    if x % 2 != y % 2 {
                        b.add_edge(NodeId::from_index(x), NodeId::from_index(y))
                            .expect("in range");
                    }
                }
                let side = (0..n)
                    .map(|v| if v % 2 == 0 { Side::V1 } else { Side::V2 })
                    .collect();
                BipartiteGraph::new(b.build(), side).expect("edges join the parities")
            })
    })
}

/// The first-match scan the hashed lookup replaces.
fn scan(g: &Graph, name: &str) -> Option<NodeId> {
    g.nodes().find(|&v| g.label(v) == name)
}

/// `node_by_label` agrees with the scan on every label of `g` and on
/// names no generated graph carries, and `nodes_by_labels` resolves a
/// list of names to the set of their scanned nodes, or returns its first
/// unknown name.
fn lookup_matches_scan(g: &Graph) -> Result<(), TestCaseError> {
    let absent = ["absent", "attribute_", "attribute_19", "a\0", "é9", "日本"];
    let names: Vec<&str> = g.nodes().map(|v| g.label(v)).chain(absent).collect();
    for &name in &names {
        prop_assert_eq!(g.node_by_label(name), scan(g, name), "label {:?}", name);
    }
    let known: Vec<&str> = names[..g.node_count()].to_vec();
    let expected = NodeSet::from_nodes(g.node_count(), known.iter().filter_map(|&l| scan(g, l)));
    prop_assert_eq!(g.nodes_by_labels(&known), Ok(expected));
    let mixed = [
        known.first().copied().unwrap_or("a"),
        "absent",
        "attribute_",
    ];
    let first_unknown = mixed.iter().copied().find(|&l| scan(g, l).is_none());
    prop_assert_eq!(g.nodes_by_labels(&mixed).err(), first_unknown);
    Ok(())
}

fn labels_of(g: &Graph) -> Vec<&str> {
    g.nodes().map(|v| g.label(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hashed label lookup agrees with a first-match scan on the
    /// graph, on an induced subgraph and on the side-swapped graph; the
    /// graph, its equality and its label sequence survive both.
    #[test]
    fn label_lookup_matches_a_scan(
        bg in labelled_graph(),
        coins in proptest::collection::vec(proptest::bool::ANY, 150),
    ) {
        let g = bg.graph();
        lookup_matches_scan(g)?;

        let whole = induced_subgraph(g, &NodeSet::full(g.node_count()));
        prop_assert_eq!(&whole.graph, g);
        let keep = NodeSet::from_nodes(g.node_count(), g.nodes().filter(|v| coins[v.index()]));
        let sub = induced_subgraph(g, &keep);
        let kept: Vec<&str> = keep.iter().map(|v| g.label(v)).collect();
        prop_assert_eq!(labels_of(&sub.graph), kept);
        lookup_matches_scan(&sub.graph)?;

        let swapped = bg.swap_sides();
        prop_assert_eq!(swapped.graph(), g);
        prop_assert_eq!(labels_of(swapped.graph()), labels_of(g));
        prop_assert_eq!(&swapped.swap_sides(), &bg);
        lookup_matches_scan(swapped.graph())?;
    }
}

#[test]
fn label_lookup_on_empty_graphs() {
    for g in [Graph::empty(), GraphBuilder::new().build()] {
        assert_eq!(g, Graph::empty());
        assert_eq!(g.node_by_label(""), None);
        assert_eq!(g.node_by_label("a"), None);
        assert_eq!(g.nodes_by_labels(&[""]), Err(""));
        assert_eq!(g.nodes_by_labels::<&str>(&[]), Ok(NodeSet::new(0)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// NodeSet algebra: De Morgan-ish laws and length consistency.
    #[test]
    fn nodeset_algebra_laws((g, a) in graph_with_set(), coins in proptest::collection::vec(proptest::bool::ANY, 8)) {
        let n = g.node_count();
        let b = NodeSet::from_nodes(
            n,
            coins.iter().take(n).enumerate().filter(|(_, &c)| c).map(|(i, _)| NodeId::from_index(i)),
        );
        let union = a.union(&b);
        let inter = a.intersection(&b);
        prop_assert_eq!(union.len() + inter.len(), a.len() + b.len());
        prop_assert!(inter.is_subset_of(&a) && inter.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&union) && b.is_subset_of(&union));
        let diff = a.difference(&b);
        prop_assert!(diff.is_disjoint_from(&b));
        prop_assert_eq!(diff.len() + inter.len(), a.len());
        // Iteration is sorted and exact.
        let v = a.to_vec();
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(v.len(), a.len());
    }

    /// BFS and DFS visit exactly the component of the start node.
    #[test]
    fn traversals_visit_the_component((g, alive) in graph_with_set()) {
        let Some(start) = alive.first() else { return Ok(()) };
        let bfs = bfs_order(&g, &alive, start);
        let dfs = dfs_order(&g, &alive, start);
        let mut b = bfs.clone();
        let mut d = dfs.clone();
        b.sort_unstable();
        d.sort_unstable();
        prop_assert_eq!(b, d, "BFS and DFS must agree on the reachable set");
        // Every visited node is alive and reachable (finite distance).
        let dist = bfs_distances(&g, &alive, start);
        for &v in &bfs {
            prop_assert!(alive.contains(v));
            prop_assert!(dist[v.index()] != INFINITE_DISTANCE);
        }
    }

    /// Shortest paths realize the BFS distance exactly.
    #[test]
    fn shortest_path_matches_distance((g, alive) in graph_with_set()) {
        let nodes = alive.to_vec();
        if nodes.len() < 2 { return Ok(()) }
        let (from, to) = (nodes[0], nodes[nodes.len() - 1]);
        let dist = bfs_distances(&g, &alive, from);
        match shortest_path(&g, &alive, from, to) {
            Some(p) => {
                prop_assert_eq!((p.len() - 1) as u32, dist[to.index()]);
                prop_assert_eq!(p.first(), Some(&from));
                prop_assert_eq!(p.last(), Some(&to));
                for w in p.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                    prop_assert!(alive.contains(w[0]) && alive.contains(w[1]));
                }
            }
            None => prop_assert_eq!(dist[to.index()], INFINITE_DISTANCE),
        }
    }

    /// Spanning trees exist iff the induced subgraph is connected, and
    /// have exactly |alive| − 1 edges.
    #[test]
    fn spanning_tree_iff_connected((g, alive) in graph_with_set()) {
        match spanning_tree(&g, &alive) {
            Some((_, t)) => {
                prop_assert!(is_connected_within(&g, &alive));
                prop_assert_eq!(t.len(), alive.len().saturating_sub(1));
            }
            None => prop_assert!(!is_connected_within(&g, &alive)),
        }
    }

    /// Components partition the alive set and are individually connected.
    #[test]
    fn components_partition((g, alive) in graph_with_set()) {
        let comps = connected_components(&g, &alive);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, alive.len());
        for c in &comps {
            prop_assert!(c.is_subset_of(&alive));
            prop_assert!(is_connected_within(&g, c));
        }
        for (i, a) in comps.iter().enumerate() {
            for b in &comps[i + 1..] {
                prop_assert!(a.is_disjoint_from(b));
            }
        }
    }

    /// Every enumerated cycle is a genuine simple cycle in canonical
    /// form, each exactly once, and its chord list checks out.
    #[test]
    fn cycles_are_canonical_and_unique(g in small_graph()) {
        let cycles = enumerate_cycles(&g, CycleLimits::default());
        let mut seen = std::collections::HashSet::new();
        for c in &cycles {
            prop_assert!(c.len() >= 3);
            // Edges of the cycle exist.
            for i in 0..c.len() {
                prop_assert!(g.has_edge(c.0[i], c.0[(i + 1) % c.len()]));
            }
            // Canonical: minimum first, orientation fixed.
            let min = *c.0.iter().min().expect("nonempty");
            prop_assert_eq!(c.0[0], min);
            prop_assert!(c.0[1] < c.0[c.len() - 1]);
            prop_assert!(seen.insert(c.0.clone()), "duplicate cycle {:?}", c.0);
            // Chords are non-consecutive adjacent pairs.
            for (i, j) in chords_of_cycle(&g, c) {
                prop_assert!(g.has_edge(c.0[i], c.0[j]));
                let consecutive = j == i + 1 || (i == 0 && j == c.len() - 1);
                prop_assert!(!consecutive);
            }
        }
    }

    /// The tree of blocks settles single removals as a search does: with
    /// the first and the last node as terminals, the block pass fails iff
    /// they are disconnected, and otherwise `remove_if_redundant_in`
    /// removes a non-terminal iff they stay connected without it.
    #[test]
    fn biconnectivity_invariants(g in small_graph()) {
        let n = g.node_count();
        let full = NodeSet::full(n);
        let t = NodeSet::from_nodes(n, [NodeId(0), NodeId::from_index(n - 1)]);
        let mut ws = Workspace::new();
        let pass = terminal_blocks_in(&mut ws, &g, &t);
        prop_assert_eq!(pass.is_some(), terminals_connected(&g, &full, &t));
        if pass.is_some() {
            for v in (1..n - 1).map(NodeId::from_index) {
                let mut alive = full.clone();
                remove_if_redundant_in(&mut ws, &g, &mut alive, v, &[]);
                let mut without = full.clone();
                without.remove(v);
                prop_assert_eq!(!alive.contains(v), terminals_connected(&g, &without, &t));
            }
        }
    }

    /// The CSR build is behaviourally identical to a naive adjacency-set
    /// reference, even under duplicate and unordered edge insertion:
    /// `neighbors(v)` comes out sorted and deduplicated, and
    /// `degree`/`edge_count`/`has_edge` all match.
    #[test]
    fn csr_build_matches_naive_reference((n, pairs) in messy_edge_list()) {
        let mut b = GraphBuilder::with_nodes(n);
        let mut naive: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
        for &(x, y) in &pairs {
            if x == y {
                continue; // self-loops are rejected by the builder
            }
            b.add_edge(NodeId::from_index(x), NodeId::from_index(y)).expect("in range");
            naive[x].insert(y);
            naive[y].insert(x);
        }
        let g = b.build();
        prop_assert_eq!(g.node_count(), n);
        let naive_edges: usize = naive.iter().map(|s| s.len()).sum::<usize>() / 2;
        prop_assert_eq!(g.edge_count(), naive_edges);
        for v in 0..n {
            let nbrs = g.neighbors(NodeId::from_index(v));
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped: {:?}", nbrs);
            let expected: Vec<NodeId> = naive[v].iter().map(|&u| NodeId::from_index(u)).collect();
            prop_assert_eq!(nbrs, &expected[..]);
            prop_assert_eq!(g.degree(NodeId::from_index(v)), naive[v].len());
            for u in 0..n {
                prop_assert_eq!(
                    g.has_edge(NodeId::from_index(v), NodeId::from_index(u)),
                    naive[v].contains(&u)
                );
            }
        }
    }

    /// CSR and bitset adjacency agree edge-for-edge on random graphs —
    /// under the default threshold, all-dense, and pure-CSR — including
    /// self-queries (`has_edge(v, v)` is `false` both ways: the builder
    /// rejects self-loops) and graphs whose messy edge list collapses to
    /// nothing. The word-level probes agree with their definitional
    /// scans on a random mask at the same time.
    #[test]
    fn hybrid_adjacency_matches_csr(
        (n, pairs) in messy_edge_list(),
        coins in proptest::collection::vec(proptest::bool::ANY, 8),
    ) {
        let mut b = GraphBuilder::with_nodes(n);
        for &(x, y) in &pairs {
            if x != y {
                b.add_edge(NodeId::from_index(x), NodeId::from_index(y)).expect("in range");
            }
        }
        let mut g = b.build();
        let mask = NodeSet::from_nodes(
            n,
            coins.iter().take(n).enumerate().filter(|(_, &c)| c).map(|(i, _)| NodeId::from_index(i)),
        );
        for threshold in [0usize, 1, 2, usize::MAX] {
            g.rebuild_bit_rows(threshold);
            prop_assert!(check_adjacency_symmetric(&g), "threshold {threshold}");
            for a in 0..n {
                let a = NodeId::from_index(a);
                for c in 0..n {
                    let c = NodeId::from_index(c);
                    prop_assert_eq!(g.has_edge(a, c), g.neighbors(a).binary_search(&c).is_ok());
                }
                prop_assert!(!g.has_edge(a, a), "self-loop through the bit test");
                prop_assert_eq!(
                    g.intersect_count(a, &mask),
                    g.neighbors(a).iter().filter(|&&u| mask.contains(u)).count()
                );
                prop_assert_eq!(
                    g.neighbors_subset_of(a, &mask),
                    g.neighbors(a).iter().all(|&u| mask.contains(u))
                );
                let word_level: Vec<NodeId> = g.alive_neighbors(a, &mask).collect();
                let scan: Vec<NodeId> =
                    g.neighbors(a).iter().copied().filter(|&u| mask.contains(u)).collect();
                prop_assert_eq!(word_level, scan);
            }
            let mut into = NodeSet::new(n);
            g.adjacent_to_set_into(&mask, &mut into);
            prop_assert_eq!(&into, &g.adjacent_to_set(&mask));
        }
    }

    /// The workspace `_in` traversal variants agree with the allocating
    /// originals, including across repeated reuse of one workspace.
    #[test]
    fn workspace_variants_match_allocating((g, alive) in graph_with_set(), tcoins in proptest::collection::vec(proptest::bool::ANY, 8)) {
        let mut ws = Workspace::new();
        if let Some(start) = alive.first() {
            // Run twice through the same workspace: reuse must not leak
            // marks between sweeps.
            for _ in 0..2 {
                let fresh = bfs_order(&g, &alive, start);
                let reused = bfs_order_in(&mut ws, &g, &alive, start).to_vec();
                prop_assert_eq!(&fresh, &reused);
            }
        }
        let terminals = NodeSet::from_nodes(
            g.node_count(),
            tcoins
                .iter()
                .take(g.node_count())
                .enumerate()
                .filter(|(_, &c)| c)
                .map(|(i, _)| NodeId::from_index(i)),
        );
        // Definitional reference: all terminals alive and inside the BFS
        // component of the first one.
        let reference = terminals.is_subset_of(&alive)
            && match terminals.first() {
                None => true,
                Some(t0) => {
                    let comp = NodeSet::from_nodes(g.node_count(), bfs_order(&g, &alive, t0));
                    terminals.is_subset_of(&comp)
                }
            };
        prop_assert_eq!(terminals_connected(&g, &alive, &terminals), reference);
        prop_assert_eq!(terminals_connected_in(&mut ws, &g, &alive, &terminals), reference);
    }

    /// Induced subgraphs keep exactly the internal edges.
    #[test]
    fn induced_subgraph_edges((g, keep) in graph_with_set()) {
        let sub = induced_subgraph(&g, &keep);
        let expected = g
            .edges()
            .filter(|&(a, b)| keep.contains(a) && keep.contains(b))
            .count();
        prop_assert_eq!(sub.graph.edge_count(), expected);
        for v in sub.graph.nodes() {
            prop_assert_eq!(sub.graph.label(v), g.label(sub.parent_of(v)));
        }
    }
}
