//! Conformality (Definition 7).
//!
//! A hypergraph is *conformal* when every clique of its primal graph
//! `G(H)` is contained in some edge. Definition 7 uses this to define
//! α-acyclicity: `H` is α-acyclic iff `G(H)` is chordal and `H` is
//! conformal.
//!
//! The production test is **Gilmore's criterion**: `H` is conformal iff
//! for every three edges `eᵢ, eⱼ, eₖ` some edge contains
//! `need = (eᵢ∩eⱼ) ∪ (eᵢ∩eₖ) ∪ (eⱼ∩eₖ)`. Triples with a repeated edge
//! hold trivially (`need` then lies in the repeated edge), so only
//! distinct triples `i < j < k` are checked. A brute-force maximal-clique
//! check (Bron–Kerbosch on `G(H)`) is also provided as ground truth for
//! tests.
//!
//! ## Pruning lemma
//!
//! > **If one pairwise intersection of a triple lies inside the third
//! > edge, the triple satisfies Gilmore's criterion.** In particular a
//! > violating triple has all three pairwise intersections nonempty.
//!
//! *Proof.* Say `eᵢ∩eⱼ ⊆ eₖ`. The other two parts of `need`, `eᵢ∩eₖ`
//! and `eⱼ∩eₖ`, lie in `eₖ` by definition, so `need ⊆ eₖ` and `eₖ`
//! itself is the covering edge. The cases `eᵢ∩eₖ ⊆ eⱼ` and
//! `eⱼ∩eₖ ⊆ eᵢ` are symmetric. An empty intersection is contained in
//! every edge, so it falls under the first case. ∎
//!
//! ## The scan
//!
//! The scan therefore only visits triangles of the *edge-intersection
//! graph*: for each edge `i` it takes its partners
//! (the higher-indexed edges sharing a node with it, built once by
//! [`Incidence::higher_partners_in`]), marks them, and for each partner
//! `j` walks `j`'s partners `k`, keeping those that are marked.
//! Each surviving triple is dropped as soon as one pairwise intersection
//! lies inside the third edge. Only then is `need` tested, and only
//! against the edges containing one of its nodes: a covering edge must
//! contain every node of `need`.
//!
//! Write `d(v)` for the number of edges containing node `v`, `W` for
//! the number of paths `i–j–k` (`i < j < k`) in the edge-intersection
//! graph, and `T ≤ W` for the number of triples of pairwise-intersecting
//! edges. Building the partner lists takes `O(Σᵥ d(v)²)` steps plus a
//! sort of each list (word-row ORs and no sort on a bipartite view), the
//! enumeration one mark test per path (`O(W)`), and the set algebra
//! `O(T · (1 + max d) · ⌈|N|/64⌉)` word operations.
//! The dense criterion visits all `|E|³/6` triples however sparsely the
//! edges overlap and tests each against up to `|E|` edges. All scratch
//! (three word rows, the partner lists) comes from the caller's
//! [`Workspace`], and the partner marks use its epoch array, so a warm
//! scan allocates nothing. Triples are visited in the lexicographic
//! order of the dense criterion, so the witness is the same one the
//! dense scan would return.
//!
//! ## One scan, two views
//!
//! The scan reads its input through [`Incidence`] plus edge rows: a
//! [`Hypergraph`] is one such view, and [`SideIncidence`] is another —
//! a bipartite graph read as the hypergraph whose edges are the
//! neighborhoods of one side's nodes (`H¹_G` for side `V2`), with no
//! labelled copy. The Vᵢ-conformity recognizer of `mcc-chordality` runs
//! the scan on the latter, so its witnesses come out in the ids of the
//! bipartite graph.

use crate::{primal_graph, EdgeId, Hypergraph};
use mcc_graph::{BipartiteGraph, Graph, NodeId, NodeSet, Side, Workspace};

/// The incidence structure the partner lists are built from: edges with
/// dense ids below [`Incidence::edge_bound`], their member nodes, and for
/// each node the edges containing it.
pub trait Incidence {
    /// Every edge id is below this bound (ids that are not edges are
    /// allowed and simply never visited).
    fn edge_bound(&self) -> usize;
    /// The edge ids, ascending.
    fn edges(&self) -> impl Iterator<Item = usize> + '_;
    /// The nodes of edge `e`.
    fn members(&self, e: usize) -> impl Iterator<Item = NodeId> + '_;
    /// The edges containing node `v`, ascending.
    fn containing(&self, v: NodeId) -> impl Iterator<Item = usize> + '_;

    /// For every edge `i`, the edges `k > i` that share a node with it,
    /// in increasing order, as one flat list: those of `i` are
    /// `partners[offsets[i]..offsets[i + 1]]` (empty for ids that are not
    /// edges). Both buffers are cleared first.
    ///
    /// The provided version walks the incidence lists, deduplicates with
    /// the workspace's epoch marks and sorts each list once:
    /// `O(Σᵥ d(v)²)` steps plus the sorts.
    fn higher_partners_in(
        &self,
        ws: &mut Workspace,
        offsets: &mut Vec<usize>,
        partners: &mut Vec<usize>,
    ) {
        let bound = self.edge_bound();
        offsets.clear();
        offsets.resize(bound + 1, 0);
        partners.clear();
        let mut next = 0;
        for i in self.edges() {
            // Ids between edges get empty lists.
            for slot in &mut offsets[next..=i] {
                *slot = partners.len();
            }
            next = i + 1;
            let start = partners.len();
            ws.begin_visit(bound);
            for v in self.members(i) {
                for k in self.containing(v) {
                    if k > i && ws.mark(NodeId::from_index(k)) {
                        partners.push(k);
                    }
                }
            }
            partners[start..].sort_unstable();
        }
        for slot in &mut offsets[next..] {
            *slot = partners.len();
        }
    }
}

/// An [`Incidence`] whose edges are also available as word rows over
/// the node universe — what Gilmore's set algebra runs on.
pub(crate) trait EdgeRows: Incidence {
    /// Size of the node universe (bits per edge row).
    fn node_count(&self) -> usize;
    /// Edge `e` as `⌈node_count / 64⌉` words, bit `v` set iff `v ∈ e`.
    fn edge_row(&self, e: usize) -> &[u64];
}

impl Incidence for Hypergraph {
    fn edge_bound(&self) -> usize {
        self.edge_count()
    }

    fn edges(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.edge_count()
    }

    fn members(&self, e: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.edge(EdgeId::from_index(e)).iter()
    }

    fn containing(&self, v: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.edges_containing(v).iter().map(|e| e.index())
    }
}

impl EdgeRows for Hypergraph {
    fn node_count(&self) -> usize {
        Hypergraph::node_count(self)
    }

    fn edge_row(&self, e: usize) -> &[u64] {
        self.edge(EdgeId::from_index(e)).words()
    }
}

/// A bipartite graph read as the hypergraph whose edges are the
/// neighborhoods of the `edge_side` nodes: edge ids and node ids are
/// both ids of the bipartite graph. With `edge_side = V2` this is `H¹_G`
/// (and `V1` gives `H²_G`), except that isolated `edge_side` nodes
/// become empty edges, which intersect nothing and so never matter to
/// the scans here.
#[derive(Debug, Clone, Copy)]
pub struct SideIncidence<'a> {
    bg: &'a BipartiteGraph,
    edge_side: Side,
}

impl<'a> SideIncidence<'a> {
    /// The view of `bg` whose edges come from `edge_side`.
    pub fn new(bg: &'a BipartiteGraph, edge_side: Side) -> Self {
        SideIncidence { bg, edge_side }
    }
}

impl Incidence for SideIncidence<'_> {
    fn edge_bound(&self) -> usize {
        self.bg.graph().node_count()
    }

    fn edges(&self) -> impl Iterator<Item = usize> + '_ {
        self.bg.side_nodes(self.edge_side).map(NodeId::index)
    }

    fn members(&self, e: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.bg
            .graph()
            .neighbors(NodeId::from_index(e))
            .iter()
            .copied()
    }

    fn containing(&self, v: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.bg.graph().neighbors(v).iter().map(|u| u.index())
    }

    /// The partners of edge-side node `e` are the edge-side nodes above
    /// it at distance 2: the OR of its neighbors' adjacency rows
    /// ([`mcc_graph::Graph::or_neighbors_into`]) read back in increasing
    /// order, so no marks or sorts are needed.
    fn higher_partners_in(
        &self,
        ws: &mut Workspace,
        offsets: &mut Vec<usize>,
        partners: &mut Vec<usize>,
    ) {
        let g = self.bg.graph();
        let mut row = ws.take_word_buf();
        row.resize(g.node_count().div_ceil(64), 0);
        offsets.clear();
        partners.clear();
        for e in g.nodes() {
            offsets.push(partners.len());
            if self.bg.side(e) != self.edge_side {
                continue;
            }
            for &v in g.neighbors(e) {
                g.or_neighbors_into(v, &mut row);
            }
            // Reading a word back clears it, so the row ends zeroed.
            for (wi, word) in row.iter_mut().enumerate() {
                while *word != 0 {
                    let k = wi * 64 + word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    if k > e.index() {
                        partners.push(k);
                    }
                }
            }
        }
        offsets.push(partners.len());
        ws.return_word_buf(row);
    }
}

/// [`SideIncidence`] plus its edge rows, laid out in a caller-owned word
/// buffer: row `slot[w]` holds the neighborhood of edge-side node `w`.
struct SideRows<'a> {
    inc: SideIncidence<'a>,
    rows: &'a [u64],
    slot: &'a [usize],
    words: usize,
}

impl Incidence for SideRows<'_> {
    fn edge_bound(&self) -> usize {
        self.inc.edge_bound()
    }

    fn edges(&self) -> impl Iterator<Item = usize> + '_ {
        self.inc.edges()
    }

    fn members(&self, e: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.inc.members(e)
    }

    fn containing(&self, v: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.inc.containing(v)
    }

    fn higher_partners_in(
        &self,
        ws: &mut Workspace,
        offsets: &mut Vec<usize>,
        partners: &mut Vec<usize>,
    ) {
        self.inc.higher_partners_in(ws, offsets, partners);
    }
}

impl EdgeRows for SideRows<'_> {
    fn node_count(&self) -> usize {
        self.inc.edge_bound()
    }

    fn edge_row(&self, e: usize) -> &[u64] {
        let start = self.slot[e] * self.words;
        &self.rows[start..start + self.words]
    }
}

/// Gilmore's polynomial conformality test.
pub fn is_conformal(h: &Hypergraph) -> bool {
    !conformality_violation_in(&mut Workspace::new(), h, None)
}

/// The witness version of Gilmore's test: a set of nodes that pairwise
/// co-occur in edges (a clique of `G(H)`) yet is contained in no single
/// edge — `None` when `H` is conformal. Only triples of pairwise
/// intersecting edges are examined; see the module docs for the lemma
/// that licenses the pruning and for the cost.
pub fn find_conformality_violation(h: &Hypergraph) -> Option<NodeSet> {
    let mut witness = NodeSet::new(h.node_count());
    conformality_violation_in(&mut Workspace::new(), h, Some(&mut witness)).then_some(witness)
}

/// Gilmore's test on the hypergraph whose edges are the neighborhoods of
/// `bg`'s `edge_side` nodes, read straight off the graph (see
/// [`SideIncidence`]): `true` iff it is **not** conformal. When
/// `witness` is given and a violation is found, it is overwritten with
/// the violating node set, in the ids of `bg`. The edge rows are laid
/// out in workspace buffers, so a warm call allocates nothing.
pub fn side_conformality_violation_in(
    ws: &mut Workspace,
    bg: &BipartiteGraph,
    edge_side: Side,
    witness: Option<&mut NodeSet>,
) -> bool {
    let g = bg.graph();
    let n = g.node_count();
    let words = n.div_ceil(64);
    let mut slot = ws.take_usize_buf();
    slot.resize(n, usize::MAX);
    let mut rows = ws.take_word_buf();
    let mut next = 0;
    for w in bg.side_nodes(edge_side) {
        slot[w.index()] = next;
        next += 1;
    }
    rows.resize(next * words, 0);
    for w in bg.side_nodes(edge_side) {
        let row = &mut rows[slot[w.index()] * words..][..words];
        match g.neighbors_bits(w) {
            Some(bits) => row.copy_from_slice(bits),
            None => {
                for &u in g.neighbors(w) {
                    row[u.index() / 64] |= 1 << (u.index() % 64);
                }
            }
        }
    }
    let view = SideRows {
        inc: SideIncidence::new(bg, edge_side),
        rows: &rows,
        slot: &slot,
        words,
    };
    let found = conformality_violation_in(ws, &view, witness);
    ws.return_word_buf(rows);
    ws.return_usize_buf(slot);
    found
}

/// The scan of the module docs on any `EdgeRows` view: `true` iff the
/// view is **not** conformal. When `witness` is given and a violation is
/// found, it is overwritten with the first violating node set in the
/// dense criterion's triple order. All scratch comes from `ws`.
pub(crate) fn conformality_violation_in<V: EdgeRows + ?Sized>(
    ws: &mut Workspace,
    view: &V,
    witness: Option<&mut NodeSet>,
) -> bool {
    let n = view.node_count();
    let words = n.div_ceil(64);
    let mut offsets = ws.take_usize_buf();
    let mut partners = ws.take_usize_buf();
    view.higher_partners_in(ws, &mut offsets, &mut partners);
    let mut scratch = ws.take_word_buf();
    scratch.resize(3 * words, 0);
    let (ij, rest) = scratch.split_at_mut(words);
    let (ik, jk) = rest.split_at_mut(words);
    let mut found = false;
    'scan: for i in view.edges() {
        let pi = &partners[offsets[i]..offsets[i + 1]];
        if pi.len() < 2 {
            continue; // a triple needs two partners of `i`
        }
        let ei = view.edge_row(i);
        ws.begin_visit(view.edge_bound());
        for &j in pi {
            ws.mark(NodeId::from_index(j));
        }
        for &j in pi {
            let ej = view.edge_row(j);
            and_into(ij, ei, ej);
            for &k in &partners[offsets[j]..offsets[j + 1]] {
                if !ws.is_marked(NodeId::from_index(k)) {
                    continue;
                }
                let ek = view.edge_row(k);
                if is_subset(ij, ek) {
                    continue;
                }
                and_into(ik, ei, ek);
                if is_subset(ik, ej) {
                    continue;
                }
                and_into(jk, ej, ek);
                if is_subset(jk, ei) {
                    continue;
                }
                // `ik` becomes `need`; a covering edge contains its first node.
                for ((a, b), c) in ik.iter_mut().zip(ij.iter()).zip(jk.iter()) {
                    *a |= b | c;
                }
                let need: &[u64] = ik;
                let uncovered = bits(need).next().is_some_and(|v| {
                    !view
                        .containing(v)
                        .any(|e| is_subset(need, view.edge_row(e)))
                });
                if uncovered {
                    if let Some(out) = witness {
                        out.reset(n);
                        for v in bits(need) {
                            out.insert(v);
                        }
                    }
                    found = true;
                    break 'scan;
                }
            }
        }
    }
    ws.return_word_buf(scratch);
    ws.return_usize_buf(partners);
    ws.return_usize_buf(offsets);
    found
}

/// `out = a & b`, word by word.
fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x & y;
    }
}

/// `a ⊆ b` on word rows.
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// The set bits of a word row, ascending.
fn bits(row: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
    row.iter().enumerate().flat_map(|(wi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let tz = w.trailing_zeros() as usize;
                w &= w - 1;
                NodeId::from_index(wi * 64 + tz)
            })
        })
    })
}

/// Ground-truth conformality: enumerate the maximal cliques of the primal
/// graph with Bron–Kerbosch and check each is contained in an edge.
/// Exponential in the worst case; intended for tests and small instances.
pub fn is_conformal_bruteforce(h: &Hypergraph) -> bool {
    let g = primal_graph(h);
    let cliques = maximal_cliques(&g);
    cliques.iter().all(|c| {
        // Cliques of size ≤ 1 are vacuously covered only if the node lies
        // in some edge; isolated nodes have the empty clique {v} which no
        // edge need contain — Definition 7 quantifies over cliques of
        // G(H), and an isolated node forms a 1-clique contained in an edge
        // iff the node is non-isolated. We follow the convention that
        // 1-cliques of isolated nodes are ignored (they carry no
        // co-occurrence constraint), matching Gilmore's criterion. The
        // same goes for the empty clique that Bron–Kerbosch reports on a
        // node-less hypergraph.
        if c.len() <= 1 {
            return true;
        }
        h.edge_ids().any(|e| c.is_subset_of(h.edge(e)))
    })
}

/// All maximal cliques of `g`, via Bron–Kerbosch with greedy pivoting.
pub fn maximal_cliques(g: &Graph) -> Vec<NodeSet> {
    let n = g.node_count();
    let mut out = Vec::new();
    let mut r = NodeSet::new(n);
    let p = NodeSet::full(n);
    let x = NodeSet::new(n);
    let nbr: Vec<NodeSet> = g
        .nodes()
        .map(|v| NodeSet::from_nodes(n, g.neighbors(v).iter().copied()))
        .collect();
    bron_kerbosch(&nbr, &mut r, p, x, &mut out);
    out
}

fn bron_kerbosch(nbr: &[NodeSet], r: &mut NodeSet, p: NodeSet, x: NodeSet, out: &mut Vec<NodeSet>) {
    if p.is_empty() && x.is_empty() {
        out.push(r.clone());
        return;
    }
    // Pivot: the vertex of P ∪ X with most neighbors in P.
    #[expect(
        clippy::expect_used,
        reason = "the empty-P-and-X case returned at the top of the function"
    )]
    let pivot = p
        .iter()
        .chain(x.iter())
        .max_by_key(|&u| nbr[u.index()].intersection(&p).len())
        .expect("P ∪ X nonempty");
    let candidates: Vec<NodeId> = p.difference(&nbr[pivot.index()]).to_vec();
    let mut p = p;
    let mut x = x;
    for v in candidates {
        r.insert(v);
        let p2 = p.intersection(&nbr[v.index()]);
        let x2 = x.intersection(&nbr[v.index()]);
        bron_kerbosch(nbr, r, p2, x2, out);
        r.remove(v);
        p.remove(v);
        x.insert(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_lists;
    use mcc_graph::builder::graph_from_edges;

    #[test]
    fn maximal_cliques_of_k3_plus_pendant() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut cs = maximal_cliques(&g);
        cs.sort_by_key(|c| c.to_vec());
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].to_vec(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(cs[1].to_vec(), vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn triangle_of_pairs_is_not_conformal() {
        // Primal graph is a triangle but no edge holds all three nodes.
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[0, 2])],
        );
        assert!(!is_conformal(&h));
        assert!(!is_conformal_bruteforce(&h));
    }

    #[test]
    fn covered_triangle_is_conformal() {
        let h = hypergraph_from_lists(
            &["a", "b", "c"],
            &[
                ("x", &[0, 1]),
                ("y", &[1, 2]),
                ("z", &[0, 2]),
                ("w", &[0, 1, 2]),
            ],
        );
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
    }

    #[test]
    fn chain_is_conformal() {
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[("x", &[0, 1]), ("y", &[1, 2]), ("z", &[2, 3])],
        );
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
    }

    #[test]
    fn single_edge_and_empty_are_conformal() {
        let h = hypergraph_from_lists(&["a", "b"], &[("e", &[0, 1])]);
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
        let h = hypergraph_from_lists(&["a"], &[]);
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
        let h = hypergraph_from_lists(&[], &[]);
        assert!(is_conformal(&h));
        assert!(is_conformal_bruteforce(&h));
    }

    #[test]
    fn four_edge_nonconformal_case() {
        // K4 as primal from the six pair-edges; the 4-clique is uncovered.
        let h = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[
                ("ab", &[0, 1]),
                ("ac", &[0, 2]),
                ("ad", &[0, 3]),
                ("bc", &[1, 2]),
                ("bd", &[1, 3]),
                ("cd", &[2, 3]),
            ],
        );
        assert!(!is_conformal(&h));
        assert!(!is_conformal_bruteforce(&h));
        // Covering with the full edge fixes it.
        let h2 = hypergraph_from_lists(
            &["a", "b", "c", "d"],
            &[
                ("ab", &[0, 1]),
                ("ac", &[0, 2]),
                ("ad", &[0, 3]),
                ("bc", &[1, 2]),
                ("bd", &[1, 3]),
                ("cd", &[2, 3]),
                ("all", &[0, 1, 2, 3]),
            ],
        );
        assert!(is_conformal(&h2));
        assert!(is_conformal_bruteforce(&h2));
    }
}
