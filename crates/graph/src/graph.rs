//! The immutable core graph type.

use crate::labels::Labels;
use crate::{BlockTree, GraphBuilder, NodeId, NodeSet};
use std::sync::OnceLock;

/// Sentinel in the per-node dense-row table marking a CSR-only row.
const SPARSE_ROW: u32 = u32::MAX;

/// Largest node count on which `Graph::from_parts` runs the
/// [`check_adjacency_symmetric`] certificate in debug builds (the check
/// is `O(Σ deg · log deg)` and exists for cross-validation, not for
/// production-scale inputs).
pub const CHECK_ADJACENCY_MAX_NODES: usize = 2048;

/// A finite, simple, undirected graph with string-labelled nodes.
///
/// `Graph` is immutable: it is produced by [`GraphBuilder::build`], after
/// which its adjacency lists are sorted and deduplicated. All algorithms in
/// the workspace that need to "delete" nodes (the elimination procedures of
/// the paper's Algorithms 1 and 2) do so by masking with a
/// [`NodeSet`] instead of mutating the graph, so a single
/// `Graph` value can back many concurrent computations.
///
/// Node labels exist purely for presentation (figures, DOT output, query
/// interfaces); algorithms only ever touch the dense [`NodeId`] indices.
/// They live back to back in one arena string with `u32` end offsets,
/// and a hashed table of node slots, built with the graph, finds a node
/// by name ([`Graph::node_by_label`]) without holding a copy of any
/// label.
///
/// Adjacency is stored in CSR (compressed sparse row) form: one flat
/// `targets` array holding every adjacency list back to back, indexed by a
/// per-node `offsets` table. `neighbors(v)` is a slice into `targets`, so
/// traversals walk one contiguous allocation instead of chasing a pointer
/// per node.
///
/// # Hybrid bitset rows
///
/// Alongside the CSR arrays, `from_parts` builds a dense `u64`-block
/// bitset row for every *high-degree* node — one bit per potential
/// neighbor, `⌈n/64⌉` words per row. A node gets a dense row exactly when
/// walking its bitset words costs no more than walking its CSR slice
/// (`degree ≥ ⌈n/64⌉`), which bounds the extra memory by `O(m)` words
/// total while turning the hot probes ([`Graph::has_edge`],
/// [`Graph::intersect_count`], [`Graph::neighbors_subset_of`],
/// [`Graph::alive_neighbors`]) into word-AND/popcount sweeps on exactly
/// the rows where that wins. Low-degree rows fall back to the CSR slice,
/// where a short sorted scan is already optimal.
#[derive(Clone)]
pub struct Graph {
    /// The node labels in one arena, with their hashed index.
    labels: Labels,
    /// Row offsets: the neighbors of node `i` occupy
    /// `targets[offsets[i] as usize..offsets[i + 1] as usize]`.
    offsets: Vec<u32>,
    /// All adjacency lists, back to back; each row sorted and deduplicated.
    targets: Vec<NodeId>,
    num_edges: usize,
    /// Per-node dense-row table: [`SPARSE_ROW`] for CSR-only nodes, else
    /// the row index into `bit_words` (row `r` occupies words
    /// `r * words_per_row ..`).
    bit_rows: Vec<u32>,
    /// Dense bitset rows, back to back, `words_per_row` words each.
    bit_words: Vec<u64>,
    /// Words per dense row: `⌈node_count / 64⌉`.
    words_per_row: usize,
    /// The tree of blocks of the whole graph, built on the first
    /// [`Graph::block_tree`] call (the first elimination sweep) and kept,
    /// never persisted.
    blocks: OnceLock<BlockTree>,
}

/// Graphs compare by their adjacency structure and label sequence only:
/// the hybrid bitset acceleration (tunable via
/// [`Graph::rebuild_bit_rows`]), the label index and the tree of blocks
/// are derived data, so they never affect equality.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
            && self.offsets == other.offsets
            && self.targets == other.targets
            && self.num_edges == other.num_edges
    }
}

impl Eq for Graph {}

impl Graph {
    /// Wraps a built CSR (`offsets` of `n + 1` entries, rows sorted and
    /// deduplicated) and its labels, indexing the labels and laying out
    /// the dense rows.
    ///
    /// # Panics
    /// Panics when the arcs or the label bytes do not fit `u32` offsets.
    pub(crate) fn from_parts(
        mut labels: Labels,
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        num_edges: usize,
    ) -> Self {
        debug_assert_eq!(labels.len() + 1, offsets.len());
        assert!(
            u32::try_from(targets.len()).is_ok(),
            "graph too large for u32 CSR offsets ({} directed arcs)",
            targets.len()
        );
        labels.build_index();
        let mut g = Graph {
            labels,
            offsets,
            targets,
            num_edges,
            bit_rows: Vec::new(),
            bit_words: Vec::new(),
            words_per_row: 0,
            blocks: OnceLock::new(),
        };
        g.rebuild_bit_rows(Self::default_dense_threshold(g.node_count()));
        debug_assert!(
            g.node_count() > CHECK_ADJACENCY_MAX_NODES || check_adjacency_symmetric(&g),
            "adjacency build produced an asymmetric or inconsistent graph"
        );
        g
    }

    /// The default density threshold: a node gets a dense bitset row when
    /// its degree is at least the number of words such a row occupies, so
    /// a word sweep over the row never reads more memory than the CSR
    /// slice it replaces.
    pub fn default_dense_threshold(n: usize) -> usize {
        n.div_ceil(64).max(1)
    }

    /// Rebuilds the dense bitset rows with an explicit degree threshold:
    /// every node of degree `≥ min_degree` gets a dense row. `0` forces a
    /// dense row for every non-isolated node (an all-zero row for a
    /// degree-0 node would change nothing), `usize::MAX` forces pure CSR.
    /// Intended for the differential tests; the builder installs
    /// [`Graph::default_dense_threshold`] automatically.
    pub fn rebuild_bit_rows(&mut self, min_degree: usize) {
        let n = self.node_count();
        self.words_per_row = n.div_ceil(64);
        self.bit_rows.clear();
        self.bit_rows.resize(n, SPARSE_ROW);
        self.bit_words.clear();
        let mut next_row: u32 = 0;
        for v in 0..n {
            let v = NodeId::from_index(v);
            if self.degree(v) < min_degree.max(1) {
                continue;
            }
            let start = self.bit_words.len();
            self.bit_words.resize(start + self.words_per_row, 0);
            let (lo, hi) = (self.offsets[v.index()], self.offsets[v.index() + 1]);
            for k in lo..hi {
                let i = self.targets[k as usize].index();
                self.bit_words[start + i / 64] |= 1u64 << (i % 64);
            }
            self.bit_rows[v.index()] = next_row;
            next_row += 1;
        }
    }

    /// A graph with no nodes and no edges.
    pub fn empty() -> Self {
        Graph {
            labels: Labels::default(),
            offsets: vec![0],
            targets: Vec::new(),
            num_edges: 0,
            bit_rows: Vec::new(),
            bit_words: Vec::new(),
            words_per_row: 0,
            blocks: OnceLock::new(),
        }
    }

    /// The tree of blocks of the whole graph, rooted at each connected
    /// component's smallest node id. It depends on the graph alone, so
    /// the first call builds it (one `O(|V| + |A|)` Hopcroft–Tarjan DFS
    /// per component, then each block's member list and, for blocks of at
    /// most 64 members, their in-block adjacency rows; about 20–30 bytes
    /// per node) and later calls return the same tree. The elimination sweeps (Algorithms 1 and 2, KMB's
    /// prune) read it through their block pass (`terminal_blocks_in`);
    /// graphs that never run one never build it.
    pub fn block_tree(&self) -> &BlockTree {
        self.blocks.get_or_init(|| BlockTree::build(self))
    }

    /// Starts building a new graph.
    pub fn builder() -> GraphBuilder {
        GraphBuilder::new()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of (undirected, distinct) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.num_edges
    }

    /// `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.len() == 0
    }

    /// Iterates over all node identifiers in increasing order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// The label attached to `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> &str {
        self.labels.get(v.index())
    }

    /// Looks up a node by its label; labels need not be unique, and the
    /// lowest id wins. This resolves every name a query serves (through
    /// [`Graph::nodes_by_labels`]): one hash of `label`, then a probe of
    /// the graph's label index, an open-addressing table of node slots
    /// built with the graph, comparing `label` with the arena label of
    /// each node the probe meets. Expected `O(1)` comparisons; colliding
    /// labels can only lengthen a probe towards a scan of every label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels.find(label)
    }

    /// Resolves query names to the set of their nodes, each by
    /// [`Graph::node_by_label`], or returns the first name no node
    /// carries, for the caller to wrap in its own error.
    pub fn nodes_by_labels<'a, S: AsRef<str>>(&self, names: &'a [S]) -> Result<NodeSet, &'a str> {
        let mut set = NodeSet::new(self.node_count());
        for name in names {
            let name = name.as_ref();
            set.insert(self.node_by_label(name).ok_or(name)?);
        }
        Ok(set)
    }

    /// The sorted adjacency list of `v` — the set `Adj(v)` of the paper.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// `true` iff `a` and `b` are adjacent: an `O(1)` bit test when
    /// either endpoint has a dense row, else a binary search probing the
    /// lower-degree endpoint's CSR row.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if let Some(row) = self.neighbors_bits(a) {
            let i = b.index();
            return (row[i / 64] >> (i % 64)) & 1 == 1;
        }
        if let Some(row) = self.neighbors_bits(b) {
            let i = a.index();
            return (row[i / 64] >> (i % 64)) & 1 == 1;
        }
        let (a, b) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The dense bitset row of `v`, when `v` is above the density
    /// threshold: `⌈n/64⌉` words, bit `i % 64` of word `i / 64` set iff
    /// `i ∈ Adj(v)`. `None` for CSR-only (sparse) rows.
    #[inline]
    pub fn neighbors_bits(&self, v: NodeId) -> Option<&[u64]> {
        let r = self.bit_rows[v.index()];
        if r == SPARSE_ROW {
            None
        } else {
            let start = r as usize * self.words_per_row;
            Some(&self.bit_words[start..start + self.words_per_row])
        }
    }

    /// `true` iff any node currently carries a dense bitset row — the
    /// cue for level-synchronous word-parallel sweeps to pay off. A graph
    /// with no dense rows is sparse enough that per-neighbor scans win.
    #[inline]
    pub fn has_dense_rows(&self) -> bool {
        !self.bit_words.is_empty()
    }

    /// `|Adj(v) ∩ set|`: a word-AND/popcount sweep when `v` has a dense
    /// row, else a CSR membership scan.
    #[inline]
    pub fn intersect_count(&self, v: NodeId, set: &NodeSet) -> usize {
        debug_assert_eq!(set.capacity(), self.node_count(), "set universe mismatch");
        match self.neighbors_bits(v) {
            Some(row) => row
                .iter()
                .zip(set.words())
                .map(|(a, b)| (a & b).count_ones() as usize)
                .sum(),
            None => self
                .neighbors(v)
                .iter()
                .filter(|&&u| set.contains(u))
                .count(),
        }
    }

    /// `Adj(v) ⊆ set`: a word-level `a & !b == 0` sweep when `v` has a
    /// dense row, else a CSR membership scan. Both paths short-circuit on
    /// the first witness outside `set`.
    #[inline]
    pub fn neighbors_subset_of(&self, v: NodeId, set: &NodeSet) -> bool {
        debug_assert_eq!(set.capacity(), self.node_count(), "set universe mismatch");
        match self.neighbors_bits(v) {
            Some(row) => row.iter().zip(set.words()).all(|(a, b)| a & !b == 0),
            None => self.neighbors(v).iter().all(|&u| set.contains(u)),
        }
    }

    /// Iterates `Adj(v) ∩ alive` — the alive-mask neighbor loop every
    /// elimination algorithm runs. For dense rows the iterator walks
    /// `row & alive` one word at a time (64 neighbors per AND); for
    /// sparse rows it filters the CSR slice.
    #[inline]
    pub fn alive_neighbors<'a>(&'a self, v: NodeId, alive: &'a NodeSet) -> AliveNeighbors<'a> {
        debug_assert_eq!(
            alive.capacity(),
            self.node_count(),
            "alive universe mismatch"
        );
        let inner = match self.neighbors_bits(v) {
            Some(row) => AliveInner::Dense {
                row,
                mask: alive.words(),
                wi: 0,
                cur: 0,
            },
            None => AliveInner::Sparse {
                iter: self.neighbors(v).iter(),
                alive,
            },
        };
        AliveNeighbors { inner }
    }

    /// Iterates every undirected edge once, as ordered pairs `(a, b)` with
    /// `a < b`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// The set `Adj(W)` of the paper: all nodes adjacent to at least one
    /// node of `w` (note that members of `w` themselves appear only if they
    /// have a neighbor in `w`). Allocates the result; hot paths use
    /// [`Graph::adjacent_to_set_into`] with a workspace scratch set.
    pub fn adjacent_to_set(&self, w: &crate::NodeSet) -> crate::NodeSet {
        let mut out = crate::NodeSet::new(self.node_count());
        self.adjacent_to_set_into(w, &mut out);
        out
    }

    /// Allocation-free [`Graph::adjacent_to_set`]: re-fits `out` to this
    /// graph's universe, clears it, and fills it with `Adj(W)`. Dense
    /// source rows are ORed in whole words at a time; sparse rows insert
    /// their CSR entries.
    pub fn adjacent_to_set_into(&self, w: &crate::NodeSet, out: &mut crate::NodeSet) {
        assert_eq!(w.capacity(), self.node_count(), "set universe mismatch");
        out.reset(self.node_count());
        for v in w.iter() {
            match self.neighbors_bits(v) {
                Some(row) => out.or_words(row),
                None => {
                    for &u in self.neighbors(v) {
                        out.insert(u);
                    }
                }
            }
        }
        out.recount();
    }

    /// ORs `Adj(v)` into the word row `row` (`⌈n/64⌉` words, bit `u`
    /// for node `u`): a word sweep of the dense row when `v` has one,
    /// else a scatter of its CSR slice. ORing the rows of `v`'s
    /// neighbors yields the nodes at distance ≤ 2, the step behind the
    /// side projections and partner lists of the recognizers.
    #[inline]
    pub fn or_neighbors_into(&self, v: NodeId, row: &mut [u64]) {
        debug_assert_eq!(
            row.len(),
            self.node_count().div_ceil(64),
            "row length mismatch"
        );
        match self.neighbors_bits(v) {
            Some(bits) => {
                for (a, b) in row.iter_mut().zip(bits) {
                    *a |= b;
                }
            }
            None => {
                for &u in self.neighbors(v) {
                    row[u.index() / 64] |= 1 << (u.index() % 64);
                }
            }
        }
    }

    /// Visits `Adj(v) ∖ seen` in increasing id order, adding each node to
    /// `seen` (a word row like [`Graph::or_neighbors_into`]'s) as it goes:
    /// a sweep of `row(v) & !seen` one word at a time when `v` has a dense
    /// row, else a scan of its CSR slice. Stops at the first node for
    /// which `visit` returns `true`, and returns whether one did; the rest
    /// of that node's word may then be marked seen unvisited. This is the
    /// frontier step of the exact DP's relax and of KMB's closure rows,
    /// which offer each node once per sweep instead of once per edge.
    #[inline]
    pub fn visit_unseen_neighbors(
        &self,
        v: NodeId,
        seen: &mut [u64],
        mut visit: impl FnMut(NodeId) -> bool,
    ) -> bool {
        debug_assert_eq!(
            seen.len(),
            self.node_count().div_ceil(64),
            "row length mismatch"
        );
        match self.neighbors_bits(v) {
            Some(bits) => {
                for (wi, (&r, s)) in bits.iter().zip(seen.iter_mut()).enumerate() {
                    let mut fresh = r & !*s;
                    *s |= fresh;
                    while fresh != 0 {
                        let u = NodeId::from_index(wi * 64 + fresh.trailing_zeros() as usize);
                        fresh &= fresh - 1;
                        if visit(u) {
                            return true;
                        }
                    }
                }
            }
            None => {
                for &u in self.neighbors(v) {
                    let (wi, bit) = (u.index() / 64, 1u64 << (u.index() % 64));
                    if seen[wi] & bit == 0 {
                        seen[wi] |= bit;
                        if visit(u) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// The set `Adj*(v)` used by the paper's Algorithm 1: nodes adjacent to
    /// `v` **and to no other alive node** (private neighbors of `v` within
    /// the subgraph induced by `alive`). Clears `out` and fills it with
    /// them, in increasing order, without allocating once `out` has room.
    pub fn private_neighbors_into(&self, v: NodeId, alive: &crate::NodeSet, out: &mut Vec<NodeId>) {
        out.clear();
        for &u in self.neighbors(v) {
            if alive.contains(u) && self.no_alive_neighbor_but(u, alive, v) {
                out.push(u);
            }
        }
    }

    /// `Adj(u) ∩ alive ⊆ {v}` — the privacy test of Algorithm 1's `Adj*`.
    /// Word-parallel when `u` has a dense row (mask `v`'s bit out of its
    /// word, then `row & alive` must vanish), CSR scan otherwise; both
    /// paths short-circuit on the first other alive neighbor.
    #[inline]
    fn no_alive_neighbor_but(&self, u: NodeId, alive: &crate::NodeSet, v: NodeId) -> bool {
        match self.neighbors_bits(u) {
            Some(row) => {
                let (vw, vb) = (v.index() / 64, 1u64 << (v.index() % 64));
                row.iter()
                    .zip(alive.words())
                    .enumerate()
                    .all(|(wi, (a, b))| {
                        let mut x = a & b;
                        if wi == vw {
                            x &= !vb;
                        }
                        x == 0
                    })
            }
            None => self
                .neighbors(u)
                .iter()
                .all(|&w| w == v || !alive.contains(w)),
        }
    }
}

/// The read-only adjacency that maximum cardinality search and the
/// perfect-elimination check run on: a [`Graph`], or an unlabelled
/// [`CsrRef`] whose arrays live in workspace buffers (the side
/// projections the Vᵢ-chordality recognizer builds per call).
pub trait Adjacency {
    /// Number of nodes; ids are `0..node_count()`.
    fn node_count(&self) -> usize;
    /// The sorted, duplicate-free adjacency list of `v`.
    fn neighbors(&self, v: NodeId) -> &[NodeId];
    /// `Adj(v) ∩ alive`; see [`Graph::alive_neighbors`].
    fn alive_neighbors<'a>(&'a self, v: NodeId, alive: &'a NodeSet) -> AliveNeighbors<'a>;
    /// `true` iff `a` and `b` are adjacent; see [`Graph::has_edge`].
    fn has_edge(&self, a: NodeId, b: NodeId) -> bool;
}

impl Adjacency for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        Graph::neighbors(self, v)
    }

    #[inline]
    fn alive_neighbors<'a>(&'a self, v: NodeId, alive: &'a NodeSet) -> AliveNeighbors<'a> {
        Graph::alive_neighbors(self, v, alive)
    }

    #[inline]
    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        Graph::has_edge(self, a, b)
    }
}

/// A borrowed, unlabelled CSR adjacency: node `v`'s neighbors are
/// `targets[offsets[v]..offsets[v + 1]]`, sorted and duplicate-free,
/// with every edge stored in both directions. The caller owns the two
/// arrays (typically workspace buffers), so building one allocates
/// nothing once the buffers are warm.
#[derive(Debug, Clone, Copy)]
pub struct CsrRef<'a> {
    offsets: &'a [usize],
    targets: &'a [NodeId],
}

impl<'a> CsrRef<'a> {
    /// Wraps `offsets` (`node_count + 1` non-decreasing entries starting
    /// at 0 and ending at `targets.len()`) and `targets`.
    pub fn new(offsets: &'a [usize], targets: &'a [NodeId]) -> Self {
        debug_assert!(offsets.first().map_or(true, |&o| o == 0));
        debug_assert!(offsets.last().map_or(true, |&o| o == targets.len()));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        CsrRef { offsets, targets }
    }
}

impl Adjacency for CsrRef<'_> {
    #[inline]
    fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    #[inline]
    fn alive_neighbors<'b>(&'b self, v: NodeId, alive: &'b NodeSet) -> AliveNeighbors<'b> {
        AliveNeighbors {
            inner: AliveInner::Sparse {
                iter: self.neighbors(v).iter(),
                alive,
            },
        }
    }

    #[inline]
    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let (na, nb) = (self.neighbors(a), self.neighbors(b));
        if na.len() <= nb.len() {
            na.binary_search(&b).is_ok()
        } else {
            nb.binary_search(&a).is_ok()
        }
    }
}

/// Iterator over `Adj(v) ∩ alive`; see [`Graph::alive_neighbors`].
pub struct AliveNeighbors<'a> {
    inner: AliveInner<'a>,
}

enum AliveInner<'a> {
    Dense {
        row: &'a [u64],
        mask: &'a [u64],
        wi: usize,
        cur: u64,
    },
    Sparse {
        iter: std::slice::Iter<'a, NodeId>,
        alive: &'a NodeSet,
    },
}

impl Iterator for AliveNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match &mut self.inner {
            AliveInner::Dense { row, mask, wi, cur } => loop {
                if *cur != 0 {
                    let tz = cur.trailing_zeros() as usize;
                    *cur &= *cur - 1;
                    return Some(NodeId::from_index((*wi - 1) * 64 + tz));
                }
                if *wi >= row.len() {
                    return None;
                }
                *cur = row[*wi] & mask[*wi];
                *wi += 1;
            },
            AliveInner::Sparse { iter, alive } => iter.find(|&&u| alive.contains(u)).copied(),
        }
    }
}

/// Debug-build certificate for the adjacency substrate (PR-4 style):
/// every CSR row is strictly sorted (so deduplicated) and self-loop
/// free, every edge is stored symmetrically, and every dense bitset row
/// agrees bit-for-bit with its CSR row — which makes the bit test and
/// the CSR search inside [`Graph::has_edge`] provably interchangeable.
/// `Graph::from_parts` asserts this in debug builds up to
/// [`CHECK_ADJACENCY_MAX_NODES`] nodes.
pub fn check_adjacency_symmetric(g: &Graph) -> bool {
    for v in g.nodes() {
        let row = g.neighbors(v);
        if !row.windows(2).all(|w| w[0] < w[1]) {
            return false; // unsorted or duplicated entries
        }
        for &u in row {
            if u == v || u.index() >= g.node_count() || g.neighbors(u).binary_search(&v).is_err() {
                return false; // self-loop, out of range, or asymmetric
            }
        }
        if let Some(bits) = g.neighbors_bits(v) {
            let popcount: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
            if popcount != row.len() {
                return false; // dense row carries extra or missing bits
            }
            for &u in row {
                let i = u.index();
                if (bits[i / 64] >> (i % 64)) & 1 == 0 {
                    return false; // CSR neighbor absent from the dense row
                }
            }
        }
    }
    true
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Graph(n={}, m={})", self.node_count(), self.edge_count())?;
        for v in self.nodes() {
            writeln!(
                f,
                "  {:?} [{}] -> {:?}",
                v,
                self.label(v),
                self.neighbors(v)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeSet;

    fn path3() -> Graph {
        // a - b - c
        let mut b = Graph::builder();
        let a = b.add_node("a");
        let v = b.add_node("b");
        let c = b.add_node("c");
        b.add_edge(a, v).unwrap();
        b.add_edge(v, c).unwrap();
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.label(NodeId(0)), "a");
        assert_eq!(g.node_by_label("c"), Some(NodeId(2)));
        assert_eq!(g.node_by_label("zzz"), None);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
    }

    #[test]
    fn adjacent_to_set_matches_definition() {
        let g = path3();
        let mut w = NodeSet::new(3);
        w.insert(NodeId(0));
        w.insert(NodeId(2));
        let adj = g.adjacent_to_set(&w);
        assert!(adj.contains(NodeId(1)));
        assert!(!adj.contains(NodeId(0)));
        assert_eq!(adj.len(), 1);
    }

    #[test]
    fn private_neighbors_respects_alive_mask() {
        // star: center 0, leaves 1,2; leaf 2 also adjacent to 3.
        let mut b = Graph::builder();
        let c = b.add_node("c");
        let l1 = b.add_node("l1");
        let l2 = b.add_node("l2");
        let x = b.add_node("x");
        b.add_edge(c, l1).unwrap();
        b.add_edge(c, l2).unwrap();
        b.add_edge(l2, x).unwrap();
        let g = b.build();

        let mut p = Vec::new();
        let alive = NodeSet::full(4);
        g.private_neighbors_into(c, &alive, &mut p);
        assert_eq!(p, [l1]); // l2 also sees x

        // With x dead, l2 becomes private to c.
        let mut alive2 = NodeSet::full(4);
        alive2.remove(x);
        g.private_neighbors_into(c, &alive2, &mut p);
        assert_eq!(p, [l1, l2]);
    }

    #[test]
    fn debug_output_contains_labels() {
        let g = path3();
        let s = format!("{g:?}");
        assert!(s.contains("n=3"));
        assert!(s.contains("[b]"));
    }

    /// A K5 with one pendant: every clique node is dense at threshold 1,
    /// the pendant's neighbor list has length 1.
    fn k5_pendant() -> Graph {
        let mut b = Graph::builder();
        for i in 0..6 {
            b.add_node(format!("v{i}"));
        }
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b.add_edge(NodeId(i), NodeId(j)).unwrap();
            }
        }
        b.add_edge(NodeId(4), NodeId(5)).unwrap();
        b.build()
    }

    #[test]
    fn has_edge_agrees_under_every_threshold() {
        let mut g = k5_pendant();
        for threshold in [0, 3, usize::MAX] {
            g.rebuild_bit_rows(threshold);
            assert!(check_adjacency_symmetric(&g), "threshold {threshold}");
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(
                        g.has_edge(a, b),
                        g.neighbors(a).binary_search(&b).is_ok(),
                        "threshold {threshold}, pair ({a:?}, {b:?})"
                    );
                }
                // No self-loops through either path.
                assert!(!g.has_edge(a, a));
            }
        }
    }

    #[test]
    fn neighbors_bits_only_on_dense_rows() {
        let mut g = k5_pendant();
        g.rebuild_bit_rows(2);
        // Clique nodes have degree ≥ 4 → dense; the pendant (degree 1)
        // stays CSR.
        assert!(g.neighbors_bits(NodeId(0)).is_some());
        assert!(g.neighbors_bits(NodeId(5)).is_none());
        let bits = g.neighbors_bits(NodeId(4)).unwrap();
        let members: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(members, g.degree(NodeId(4)));
        g.rebuild_bit_rows(usize::MAX);
        assert!(g.neighbors_bits(NodeId(0)).is_none());
    }

    #[test]
    fn word_level_ops_agree_with_definitions() {
        let mut g = k5_pendant();
        let set = NodeSet::from_nodes(6, [NodeId(0), NodeId(2), NodeId(5)]);
        for threshold in [0, 3, usize::MAX] {
            g.rebuild_bit_rows(threshold);
            for v in g.nodes() {
                let expect_count = g.neighbors(v).iter().filter(|&&u| set.contains(u)).count();
                assert_eq!(g.intersect_count(v, &set), expect_count);
                let expect_subset = g.neighbors(v).iter().all(|&u| set.contains(u));
                assert_eq!(g.neighbors_subset_of(v, &set), expect_subset);
                let alive: Vec<NodeId> = g.alive_neighbors(v, &set).collect();
                let expect_alive: Vec<NodeId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| set.contains(u))
                    .collect();
                assert_eq!(alive, expect_alive, "threshold {threshold}, v={v:?}");
            }
        }
    }

    #[test]
    fn adjacent_to_set_into_matches_allocating_variant() {
        let mut g = k5_pendant();
        let w = NodeSet::from_nodes(6, [NodeId(4), NodeId(5)]);
        let mut out = NodeSet::new(1); // wrong universe on purpose: _into re-fits
        for threshold in [0, 3, usize::MAX] {
            g.rebuild_bit_rows(threshold);
            g.adjacent_to_set_into(&w, &mut out);
            assert_eq!(out, g.adjacent_to_set(&w), "threshold {threshold}");
            assert_eq!(out.len(), 6); // Adj({4,5}) = everything (4 sees all)
        }
    }

    #[test]
    fn private_neighbors_agree_across_representations() {
        let mut g = k5_pendant();
        let mut alive = NodeSet::full(6);
        alive.remove(NodeId(3));
        let mut dense = Vec::new();
        let mut sparse = Vec::new();
        g.rebuild_bit_rows(0);
        g.private_neighbors_into(NodeId(4), &alive, &mut dense);
        g.rebuild_bit_rows(usize::MAX);
        g.private_neighbors_into(NodeId(4), &alive, &mut sparse);
        assert_eq!(dense, sparse);
        assert_eq!(dense, vec![NodeId(5)]); // the pendant is private to 4
    }

    #[test]
    fn visit_unseen_neighbors_agrees_across_representations() {
        // A star over three words: the center sees 1, 5, 63, 64, 70, 129.
        let leaves = [1usize, 5, 63, 64, 70, 129];
        let mut g = crate::builder::graph_from_edges(130, &leaves.map(|u| (0, u)));
        for threshold in [0, usize::MAX] {
            g.rebuild_bit_rows(threshold);
            let mut seen = vec![0u64; 3];
            seen[0] |= 1 << 5;
            let mut order = Vec::new();
            let stopped = g.visit_unseen_neighbors(NodeId(0), &mut seen, |u| {
                order.push(u.index());
                false
            });
            assert!(!stopped);
            assert_eq!(order, [1, 63, 64, 70, 129], "threshold {threshold}");
            assert!(leaves.iter().all(|&u| seen[u / 64] >> (u % 64) & 1 == 1));
            assert!(!g.visit_unseen_neighbors(NodeId(0), &mut seen, |_| true));

            let mut seen = vec![0u64; 3];
            order.clear();
            let stopped = g.visit_unseen_neighbors(NodeId(0), &mut seen, |u| {
                order.push(u.index());
                u.index() == 64
            });
            assert!(stopped);
            assert_eq!(order, [1, 5, 63, 64], "threshold {threshold}");
        }
    }

    #[test]
    fn empty_graph_survives_the_fast_paths() {
        let g = Graph::empty();
        assert!(check_adjacency_symmetric(&g));
        let w = NodeSet::new(0);
        let mut out = NodeSet::new(0);
        g.adjacent_to_set_into(&w, &mut out);
        assert!(out.is_empty());
    }
}
