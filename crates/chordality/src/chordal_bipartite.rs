//! Chordal bipartite ((6,1)-chordal) graph recognition.
//!
//! A bipartite graph is *chordal bipartite* when every cycle of length
//! ≥ 6 has a chord — exactly the paper's (6,1)-chordal class, which by
//! Theorem 1(iii) corresponds to β-acyclic hypergraphs.
//!
//! Two independent recognizers are provided:
//!
//! * [`is_chordal_bipartite`] — graph-native **bisimplicial edge
//!   elimination** (Golumbic–Goss): an edge `xy` is *bisimplicial* when
//!   `N(x) ∪ N(y)` induces a complete bipartite subgraph; a graph is
//!   chordal bipartite iff repeatedly deleting bisimplicial edges empties
//!   the edge set. Soundness: the edges of an induced chordless cycle of
//!   length ≥ 6 can never become bisimplicial (the required adjacency
//!   would be a chord), so a non-chordal-bipartite graph always gets
//!   stuck. Completeness: every chordal bipartite graph with an edge has
//!   a bisimplicial edge, and deleting one preserves the class (a cycle
//!   whose only chord were the deleted edge would force, via
//!   bisimpliciality, a second chord). This is the production route:
//!   `classify_bipartite` runs it, and `tables e1` measures it well
//!   ahead of the β route on the same graphs (EXPERIMENTS.md §E1, §E22).
//! * [`is_chordal_bipartite_via_beta`] — hypergraph-side: β-acyclicity of
//!   `H¹_G` (Theorem 1(iii)). Keeping both non-circular lets the test
//!   suite *verify* Theorem 1(iii) instead of assuming it.

use mcc_graph::{BipartiteGraph, Graph, NodeId, Workspace};
use mcc_hypergraph::{h1_of_bipartite, is_beta_acyclic};

/// Golumbic–Goss bisimplicial-edge elimination. See module docs.
///
/// Thin wrapper over [`is_chordal_bipartite_in`] with a transient
/// workspace.
pub fn is_chordal_bipartite(g: &Graph) -> bool {
    is_chordal_bipartite_in(&mut Workspace::new(), g)
}

/// [`is_chordal_bipartite`] through a workspace, run on the graph's own
/// CSR: an edge is deleted by setting a *dead* bit on its two arc slots,
/// each node keeps a live degree, and each node with a dense bitset row
/// keeps a live copy of it (`O(m)` words in all, by the graph's density
/// threshold). `xy` is bisimplicial iff `N(x) ⊆ N(u)` for every
/// `u ∈ N(y)` (each `u ∈ N(y)`, `w ∈ N(x)` pair must be adjacent), tested
/// on the live lists word by word when `x` and `u` both have live rows,
/// by bit probes when only `u` has one, and by a merge of the two sorted
/// rows otherwise.
///
/// The scan never restarts: a worklist starts with every edge, and
/// deleting `xy` re-queues only the live edges at `x` and `y` — the only
/// edges whose test can turn from failing to passing, since removing
/// `xy` shrinks `N(x)` and `N(y)` and makes every other test harder or
/// leaves it unchanged. By the module's soundness and completeness
/// argument any deletion order decides the class, so the graph is
/// chordal bipartite iff the worklist empties with no edge left. All
/// scratch comes from `ws`; a warm call allocates nothing.
///
/// Cost: each test is `O(Σ_{u ∈ N(y)} (deg x + deg u))`, and each
/// deletion re-queues `deg x + deg y` edges, so `O(m · Δ²)` per sweep
/// over the edges with a worst case of `O(m · Δ³)`; linear on graphs of
/// bounded degree such as block trees, with memory `O(n + m)`.
pub fn is_chordal_bipartite_in(ws: &mut Workspace, g: &Graph) -> bool {
    let mut e = Elimination {
        g,
        words: g.node_count().div_ceil(64),
        start: ws.take_usize_buf(),
        live: ws.take_usize_buf(),
        dead: ws.take_word_buf(),
        slot: ws.take_usize_buf(),
        rows: ws.take_word_buf(),
    };
    // `start[v]` is the first arc slot of `v`'s row (a prefix sum of the
    // degrees), so arc `(v, neighbors(v)[p])` is slot `start[v] + p`.
    let mut total = 0;
    for v in g.nodes() {
        e.start.push(total);
        e.live.push(g.degree(v));
        total += g.degree(v);
        match g.neighbors_bits(v) {
            Some(bits) => {
                e.slot.push(e.rows.len() / e.words);
                e.rows.extend_from_slice(bits);
            }
            None => e.slot.push(usize::MAX),
        }
    }
    e.dead.resize(total.div_ceil(64), 0);
    let mut queued = ws.take_word_buf();
    queued.resize(total.div_ceil(64), 0);
    // The worklist is a FIFO of arc slots: every edge is queued once, by
    // its arc from the lower endpoint, in CSR order, and re-queued edges
    // wait behind the rest of the first sweep.
    let mut work = ws.take_usize_buf();
    for x in g.nodes() {
        for (p, &y) in g.neighbors(x).iter().enumerate() {
            if y > x {
                work.push(e.start[x.index()] + p);
                set_bit(&mut queued, e.start[x.index()] + p);
            }
        }
    }
    let mut edges_left = g.edge_count();
    let mut head = 0;
    while let Some(&arc) = work.get(head) {
        head += 1;
        if head >= 1024 && 2 * head >= work.len() {
            // Reclaim the popped prefix, so the buffer stays within
            // twice the queued edges.
            work.drain(..head);
            head = 0;
        }
        clear_bit(&mut queued, arc);
        if bit(&e.dead, arc) {
            continue;
        }
        // The row holding `arc`: the last node whose row starts at or
        // before it (nodes with empty rows share their successor's start).
        let x = NodeId::from_index(e.start.partition_point(|&s| s <= arc) - 1);
        let y = g.neighbors(x)[arc - e.start[x.index()]];
        if !e.bisimplicial(x, y) {
            continue;
        }
        e.remove(x, y);
        edges_left -= 1;
        // Re-queue the live edges at `x` and `y`, each by its arc from
        // the lower endpoint, as it was queued at the start.
        for a in [x, y] {
            for (p, &z) in g.neighbors(a).iter().enumerate() {
                if bit(&e.dead, e.start[a.index()] + p) {
                    continue;
                }
                let s = if a < z {
                    e.start[a.index()] + p
                } else {
                    e.start[z.index()] + arc_position(g, z, a)
                };
                if !bit(&queued, s) {
                    set_bit(&mut queued, s);
                    work.push(s);
                }
            }
        }
    }
    ws.return_usize_buf(work);
    ws.return_word_buf(queued);
    ws.return_word_buf(e.rows);
    ws.return_usize_buf(e.slot);
    ws.return_word_buf(e.dead);
    ws.return_usize_buf(e.live);
    ws.return_usize_buf(e.start);
    edges_left == 0
}

/// The live state of one Golumbic–Goss run over `g`'s CSR.
struct Elimination<'a> {
    g: &'a Graph,
    /// Words per dense row.
    words: usize,
    /// First arc slot of each node's row.
    start: Vec<usize>,
    /// Live degree of each node.
    live: Vec<usize>,
    /// One bit per arc slot: set once the edge is deleted.
    dead: Vec<u64>,
    /// Index of each node's live row in `rows`, or `usize::MAX` for a
    /// node without a dense bitset row.
    slot: Vec<usize>,
    /// Live copies of the graph's dense rows, back to back.
    rows: Vec<u64>,
}

impl Elimination<'_> {
    /// The live neighbors of `v`, ascending.
    fn arcs(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let first = self.start[v.index()];
        self.g
            .neighbors(v)
            .iter()
            .enumerate()
            .filter(move |&(p, _)| !bit(&self.dead, first + p))
            .map(|(_, &u)| u)
    }

    /// The live dense row of `v`, if it has one.
    fn row(&self, v: NodeId) -> Option<&[u64]> {
        let r = self.slot[v.index()];
        (r != usize::MAX).then(|| &self.rows[r * self.words..(r + 1) * self.words])
    }

    /// Is the live edge `xy` bisimplicial?
    fn bisimplicial(&self, x: NodeId, y: NodeId) -> bool {
        let need = self.live[x.index()];
        self.arcs(y)
            .all(|u| u == x || (self.live[u.index()] >= need && self.covers(u, x, y)))
    }

    /// `N(x) ∖ {y} ⊆ N(u)` on the live lists (`u` is adjacent to `y`).
    fn covers(&self, u: NodeId, x: NodeId, y: NodeId) -> bool {
        match (self.row(u), self.row(x)) {
            (Some(ru), Some(rx)) => rx.iter().zip(ru).enumerate().all(|(i, (a, b))| {
                let outside = a & !b;
                outside == 0 || (i == y.index() / 64 && outside == 1 << (y.index() % 64))
            }),
            (Some(ru), None) => self.arcs(x).all(|w| w == y || bit(ru, w.index())),
            (None, _) => {
                let mut theirs = self.arcs(u).peekable();
                self.arcs(x).all(|w| {
                    if w == y {
                        return true;
                    }
                    while theirs.next_if(|&t| t < w).is_some() {}
                    theirs.next_if_eq(&w).is_some()
                })
            }
        }
    }

    /// Deletes the live edge `xy`.
    fn remove(&mut self, x: NodeId, y: NodeId) {
        for (a, b) in [(x, y), (y, x)] {
            let arc = self.start[a.index()] + arc_position(self.g, a, b);
            set_bit(&mut self.dead, arc);
            self.live[a.index()] -= 1;
            let r = self.slot[a.index()];
            if r != usize::MAX {
                clear_bit(&mut self.rows[r * self.words..], b.index());
            }
        }
    }
}

/// The position of `b` in `a`'s sorted row; `ab` must be an edge.
fn arc_position(g: &Graph, a: NodeId, b: NodeId) -> usize {
    match g.neighbors(a).binary_search(&b) {
        Ok(p) => p,
        #[expect(
            clippy::unreachable,
            reason = "adjacency is stored symmetrically, so every edge is in both rows"
        )]
        Err(_) => unreachable!("asymmetric CSR row"),
    }
}

fn bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// (6,1)-chordality via Theorem 1(iii): `G` is chordal bipartite iff
/// `H¹_G` is β-acyclic. Isolated `V2`-nodes (which would make `H¹`
/// ill-defined) cannot lie on cycles and are dropped first.
pub fn is_chordal_bipartite_via_beta(bg: &BipartiteGraph) -> bool {
    match h1_of_bipartite(&drop_isolated_v2(bg)) {
        Ok((h, _, _)) => is_beta_acyclic(&h),
        #[expect(
            clippy::unreachable,
            reason = "`h1_of_bipartite` fails only on isolated V2 nodes, just dropped"
        )]
        Err(_) => unreachable!("isolated V2 nodes were dropped"),
    }
}

/// Returns a copy of `bg` with isolated `V2` nodes removed (they carry no
/// cycle or conformality information but would produce empty hyperedges).
#[expect(
    clippy::expect_used,
    reason = "kept ids are remapped through `index`, which covers every retained node, and sides are copied from the input graph"
)]
pub fn drop_isolated_v2(bg: &BipartiteGraph) -> BipartiteGraph {
    use mcc_graph::Side;
    let g = bg.graph();
    let keep: Vec<NodeId> = g
        .nodes()
        .filter(|&v| bg.side(v) == Side::V1 || g.degree(v) > 0)
        .collect();
    let mut index = vec![usize::MAX; g.node_count()];
    let mut b = Graph::builder();
    for (i, &v) in keep.iter().enumerate() {
        index[v.index()] = i;
        b.add_node(g.label(v));
    }
    for (a, c) in g.edges() {
        b.add_edge(
            NodeId::from_index(index[a.index()]),
            NodeId::from_index(index[c.index()]),
        )
        .expect("kept ids valid");
    }
    let side = keep.iter().map(|&v| bg.side(v)).collect();
    BipartiteGraph::new(b.build(), side).expect("partition preserved")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::bipartite::bipartite_from_lists;
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::{BipartiteGraph, CycleLimits};

    fn cycle_graph(n: usize) -> Graph {
        graph_from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    #[test]
    fn forests_and_c4_are_chordal_bipartite() {
        assert!(is_chordal_bipartite(&graph_from_edges(
            3,
            &[(0, 1), (1, 2)]
        )));
        // C4 has no cycle of length ≥ 6 at all.
        assert!(is_chordal_bipartite(&cycle_graph(4)));
        assert!(is_chordal_bipartite(&graph_from_edges(0, &[])));
    }

    #[test]
    fn c6_and_c8_are_not() {
        assert!(!is_chordal_bipartite(&cycle_graph(6)));
        assert!(!is_chordal_bipartite(&cycle_graph(8)));
    }

    #[test]
    fn c6_with_a_chord_is_chordal_bipartite() {
        // Bipartition 0,2,4 | 1,3,5; chord (1,4) joins opposite sides.
        let mut e: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        e.push((1, 4));
        let g = graph_from_edges(6, &e);
        assert!(is_chordal_bipartite(&g));
    }

    #[test]
    fn complete_bipartite_is_chordal_bipartite() {
        // K3,3: every 6-cycle has all three chords.
        let mut edges = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                edges.push((i, 3 + j));
            }
        }
        let g = graph_from_edges(6, &edges);
        assert!(is_chordal_bipartite(&g));
    }

    #[test]
    fn agrees_with_beta_and_definition_on_small_bipartite_graphs() {
        // Sweep subgraphs of K3,3 by edge bitmask: 2^9 graphs.
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
            let bg = BipartiteGraph::from_graph(g.clone()).expect("bipartite by shape");
            let direct = is_chordal_bipartite(&g);
            let via_beta = is_chordal_bipartite_via_beta(&bg);
            let def = crate::is_mn_chordal_bruteforce(&g, 6, 1, CycleLimits::default());
            assert_eq!(direct, def, "direct vs definition, mask={mask}");
            assert_eq!(via_beta, def, "beta vs definition, mask={mask}");
        }
    }

    #[test]
    fn every_row_representation_agrees_with_beta() {
        // The elimination tests edges word by word, by bit probes or by a
        // merge depending on which rows are dense: pure CSR, all-dense
        // and the default hybrid must decide alike, on and off the class.
        use mcc_gen::block_tree::BlockTreeShape;
        use mcc_gen::interval::IntervalShape;
        use mcc_gen::{random_bipartite, random_interval_hypergraph, random_six_two_block_tree};
        let mut graphs = Vec::new();
        for seed in 0..12 {
            graphs.push(random_bipartite(40, 40, 0.06, seed));
            graphs.push(random_bipartite(12, 9, 0.4, seed));
            let shape = BlockTreeShape {
                blocks: 20,
                max_block: 4,
            };
            graphs.push(random_six_two_block_tree(shape, seed));
            graphs.push(random_interval_hypergraph(IntervalShape::default(), seed).1);
        }
        let mut positive = 0;
        for bg in &graphs {
            let want = is_chordal_bipartite_via_beta(bg);
            positive += usize::from(want);
            for threshold in [
                usize::MAX,
                0,
                Graph::default_dense_threshold(bg.graph().node_count()),
            ] {
                let mut g = bg.graph().clone();
                g.rebuild_bit_rows(threshold);
                assert_eq!(is_chordal_bipartite(&g), want, "threshold {threshold}");
            }
        }
        assert!(positive > graphs.len() / 4 && positive < graphs.len());
    }

    #[test]
    fn drop_isolated_v2_removes_only_them() {
        let bg = bipartite_from_lists(&["a", "b"], &["x", "dead"], &[(0, 0), (1, 0)]);
        let cleaned = drop_isolated_v2(&bg);
        assert_eq!(cleaned.graph().node_count(), 3);
        assert_eq!(cleaned.graph().edge_count(), 2);
        assert!(cleaned.graph().node_by_label("dead").is_none());
    }
}
