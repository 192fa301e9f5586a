//! Reusable scratch state for traversals and connectivity tests.
//!
//! The paper's elimination algorithms (Algorithms 1 and 2) run `O(|V|)`
//! connectivity tests, each of which is a BFS. Allocating a fresh visited
//! set, queue, and output vector per BFS dominates the runtime on small and
//! medium instances, so every traversal in this crate has an `*_in` variant
//! taking a [`Workspace`]: an epoch-stamped visited array (cleared in `O(1)`
//! by bumping the epoch, not by zeroing), a reusable queue whose push order
//! *is* the BFS order, and a pool of scratch buffers. After warm-up, the
//! `*_in` entry points perform no heap allocation at all.
//!
//! The original allocating signatures (`bfs_order`, `component_of`, …)
//! remain available as thin wrappers over a transient workspace.

use crate::biconnected::BlockScratch;
use crate::{Graph, NodeId, NodeSet};

/// A pooled row of `u64` scratch words for word-parallel set sweeps —
/// the working currency of the (6,2) recognizer's triple-intersection
/// scan and any other consumer that ANDs adjacency rows together.
///
/// Unlike [`NodeSet`], a `BitRow` maintains no length: writes are plain
/// word stores and the population count is computed on demand, so
/// chained AND/OR pipelines pay nothing per intermediate. Rows come from
/// [`Workspace::take_bit_row`] and carry the workspace's bit-row epoch
/// stamp; [`Workspace::return_bit_row`] rejects (debug-asserts and
/// drops) a row held across a [`Workspace::reset`], the same
/// staleness discipline the epoch-stamped visited array enforces.
#[derive(Debug, Clone, Default)]
pub struct BitRow {
    words: Vec<u64>,
    capacity: usize,
    /// The workspace bit-row epoch at take time (see
    /// [`Workspace::return_bit_row`]).
    stamp: u32,
}

impl BitRow {
    /// Universe size (in bits) this row ranges over.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The raw words (bit `i % 64` of word `i / 64` is node `i`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Re-fits the row to a universe of `n` bits and zeroes it, reusing
    /// the allocation where possible.
    pub fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.capacity = n;
    }

    /// Zeroes every word, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.index();
        debug_assert!(i < self.capacity, "node {v:?} beyond capacity");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `v`.
    #[inline]
    pub fn insert(&mut self, v: NodeId) {
        let i = v.index();
        debug_assert!(i < self.capacity, "node {v:?} beyond capacity");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Loads `Adj(v)` into this row: a `memcpy` of the dense row when the
    /// graph has one, else a zero-fill plus CSR scatter. The row must
    /// already be sized to `g.node_count()` bits.
    pub fn load_neighbors(&mut self, g: &Graph, v: NodeId) {
        debug_assert_eq!(self.capacity, g.node_count(), "row universe mismatch");
        match g.neighbors_bits(v) {
            Some(bits) => self.words.copy_from_slice(bits),
            None => {
                self.words.fill(0);
                for &u in g.neighbors(v) {
                    self.words[u.index() / 64] |= 1u64 << (u.index() % 64);
                }
            }
        }
    }

    /// Overwrites this row with a copy of `other` (same universe).
    pub fn copy_from(&mut self, other: &BitRow) {
        debug_assert_eq!(self.capacity, other.capacity, "row universes differ");
        self.words.copy_from_slice(&other.words);
    }

    /// `self &= other` (same universe).
    pub fn and_with(&mut self, other: &BitRow) {
        debug_assert_eq!(self.capacity, other.capacity, "row universes differ");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other` (same universe).
    pub fn andnot_with(&mut self, other: &BitRow) {
        debug_assert_eq!(self.capacity, other.capacity, "row universes differ");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of set bits (computed on demand).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `|self ∩ other|` without materializing the intersection.
    pub fn and_count(&self, other: &BitRow) -> usize {
        debug_assert_eq!(self.capacity, other.capacity, "row universes differ");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The smallest bit of `self & !other` (same universe), without
    /// materializing the difference.
    pub fn first_andnot(&self, other: &BitRow) -> Option<NodeId> {
        debug_assert_eq!(self.capacity, other.capacity, "row universes differ");
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let word = a & !b;
            if word != 0 {
                return Some(NodeId::from_index(wi * 64 + word.trailing_zeros() as usize));
            }
        }
        None
    }

    /// The smallest set bit, if any.
    pub fn first(&self) -> Option<NodeId> {
        for (wi, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(NodeId::from_index(wi * 64 + word.trailing_zeros() as usize));
            }
        }
        None
    }
}

/// Counters describing the traffic a [`Workspace`] has served. Deltas of
/// these before/after a solve are surfaced as `SolveStats` by `mcc-core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Number of BFS sweeps run through this workspace. The elimination
    /// sweeps of Algorithms 1 and 2 count one per connectivity test they
    /// still search, and each such test is confined to one biconnected
    /// block (`remove_if_redundant_in`); their one block pass per sweep
    /// is a DFS and is not counted.
    pub bfs_runs: u64,
    /// Number of elimination-candidate tests recorded by the Steiner
    /// algorithms (incremented by `mcc-steiner`, not by this crate).
    pub elimination_steps: u64,
}

/// Reusable scratch buffers for graph traversals.
///
/// A workspace is tied to no particular graph: capacity grows on demand to
/// the largest `node_count` seen, and all buffers are retained across
/// calls, so steady-state use allocates nothing.
///
/// # Epoch marks
///
/// The visited array is exposed through [`Workspace::begin_visit`] /
/// [`Workspace::mark`] / [`Workspace::is_marked`] so that recognizers in
/// other crates can use it for their own sweeps. Marks are only valid until
/// the next `begin_visit` — and every `*_in` traversal in this crate calls
/// `begin_visit` internally, so do not interleave an external mark phase
/// with workspace traversals.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// `visited[v] == epoch` means `v` is marked in the current sweep.
    /// The block pass borrows it for DFS discovery times between two
    /// [`Workspace::clear_visited`] calls.
    pub(crate) visited: Vec<u32>,
    epoch: u32,
    /// BFS queue; after a sweep, `queue[..]` is the BFS order (the head
    /// pointer is a local index, so pushed order and visit order agree).
    pub(crate) queue: Vec<NodeId>,
    /// Pool of `Vec<NodeId>` scratch buffers (see [`Workspace::take_node_buf`]).
    node_bufs: Vec<Vec<NodeId>>,
    /// Pool of `NodeSet` scratch sets (see [`Workspace::take_set_buf`]).
    set_bufs: Vec<NodeSet>,
    /// Pool of `Vec<usize>` scratch buffers (see [`Workspace::take_usize_buf`]).
    usize_bufs: Vec<Vec<usize>>,
    /// Pool of `Vec<u64>` word buffers (see [`Workspace::take_word_buf`]).
    word_bufs: Vec<Vec<u64>>,
    /// Pool of bucket lists for the ordering algorithms (MCS, LexBFS).
    bucket_lists: Vec<Vec<Vec<NodeId>>>,
    /// Pool of [`BitRow`] scratch rows (see [`Workspace::take_bit_row`]).
    bit_rows: Vec<BitRow>,
    /// Epoch stamped onto every [`BitRow`] handed out; bumped by
    /// [`Workspace::reset`] so stale rows are detected on return.
    bit_epoch: u32,
    /// The last block pass (see `crate::biconnected`).
    pub(crate) blocks: BlockScratch,
    /// Set when a solve panicked mid-flight while holding this workspace;
    /// see [`Workspace::poison`].
    poisoned: bool,
    /// Traffic counters.
    pub stats: WorkspaceStats,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace {
            visited: Vec::new(),
            epoch: 0,
            queue: Vec::new(),
            node_bufs: Vec::new(),
            set_bufs: Vec::new(),
            usize_bufs: Vec::new(),
            word_bufs: Vec::new(),
            bucket_lists: Vec::new(),
            bit_rows: Vec::new(),
            bit_epoch: 0,
            blocks: BlockScratch::default(),
            poisoned: false,
            stats: WorkspaceStats::default(),
        }
    }

    /// A workspace pre-sized for graphs of up to `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = Self::new();
        ws.visited.resize(n, 0);
        ws.queue.reserve(n);
        ws
    }

    /// Start a new visited sweep over a universe of `n` nodes. `O(1)`
    /// except on capacity growth or epoch wrap-around.
    pub fn begin_visit(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Zeroes the visited array, grown to at least `n` nodes, and
    /// restarts the epochs.
    pub(crate) fn clear_visited(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.visited.fill(0);
        self.epoch = 0;
    }

    /// Mark `v` in the current sweep; returns `true` if it was unmarked.
    #[inline]
    pub fn mark(&mut self, v: NodeId) -> bool {
        let slot = &mut self.visited[v.index()];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }

    /// `true` iff `v` was marked since the last [`Workspace::begin_visit`].
    #[inline]
    pub fn is_marked(&self, v: NodeId) -> bool {
        self.visited[v.index()] == self.epoch
    }

    /// Borrow a scratch `Vec<NodeId>` from the pool (empty, capacity
    /// retained from earlier use). Pair with [`Workspace::return_node_buf`].
    pub fn take_node_buf(&mut self) -> Vec<NodeId> {
        let mut buf = self.node_bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer taken with [`Workspace::take_node_buf`].
    pub fn return_node_buf(&mut self, buf: Vec<NodeId>) {
        self.node_bufs.push(buf);
    }

    /// Borrow a scratch `NodeSet` of capacity exactly `n` from the pool
    /// (cleared; word storage reused). Pair with
    /// [`Workspace::return_set_buf`].
    pub fn take_set_buf(&mut self, n: usize) -> NodeSet {
        match self.set_bufs.pop() {
            Some(mut s) => {
                s.reset(n);
                s
            }
            None => NodeSet::new(n),
        }
    }

    /// Return a set taken with [`Workspace::take_set_buf`].
    pub fn return_set_buf(&mut self, set: NodeSet) {
        self.set_bufs.push(set);
    }

    /// Borrow a scratch `Vec<usize>` from the pool (empty, capacity
    /// retained). Pair with [`Workspace::return_usize_buf`].
    pub fn take_usize_buf(&mut self) -> Vec<usize> {
        let mut buf = self.usize_bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer taken with [`Workspace::take_usize_buf`].
    pub fn return_usize_buf(&mut self, buf: Vec<usize>) {
        self.usize_bufs.push(buf);
    }

    /// Borrow a scratch `Vec<u64>` from the pool (empty, capacity
    /// retained) — flat storage for several bit rows at once, such as
    /// the witness-side rows of the Vᵢ-conformity scan. Pair with
    /// [`Workspace::return_word_buf`].
    pub fn take_word_buf(&mut self) -> Vec<u64> {
        let mut buf = self.word_bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer taken with [`Workspace::take_word_buf`].
    pub fn return_word_buf(&mut self, buf: Vec<u64>) {
        self.word_bufs.push(buf);
    }

    /// Borrow a bucket list (a `Vec<Vec<NodeId>>` with every inner vector
    /// emptied but its capacity retained, outer length preserved from
    /// earlier use). Pair with [`Workspace::return_bucket_list`].
    pub fn take_bucket_list(&mut self) -> Vec<Vec<NodeId>> {
        let mut buckets = self.bucket_lists.pop().unwrap_or_default();
        for b in &mut buckets {
            b.clear();
        }
        buckets
    }

    /// Return a bucket list taken with [`Workspace::take_bucket_list`].
    pub fn return_bucket_list(&mut self, buckets: Vec<Vec<NodeId>>) {
        self.bucket_lists.push(buckets);
    }

    /// Borrow a [`BitRow`] over a universe of `n` bits from the pool
    /// (zeroed; word storage reused; stamped with the current bit-row
    /// epoch). Pair with [`Workspace::return_bit_row`].
    pub fn take_bit_row(&mut self, n: usize) -> BitRow {
        let mut row = self.bit_rows.pop().unwrap_or_default();
        row.reset(n);
        row.stamp = self.bit_epoch;
        row
    }

    /// Return a row taken with [`Workspace::take_bit_row`]. A row held
    /// across a [`Workspace::reset`] carries a stale epoch stamp: in
    /// debug builds that is an assertion failure, in release the row is
    /// quietly dropped instead of re-pooled (its contents are suspect,
    /// its allocation merely re-grows on next use).
    pub fn return_bit_row(&mut self, row: BitRow) {
        debug_assert_eq!(
            row.stamp, self.bit_epoch,
            "BitRow returned across a workspace reset"
        );
        if row.stamp == self.bit_epoch {
            self.bit_rows.push(row);
        }
    }

    /// Marks this workspace as possibly inconsistent: a solve panicked
    /// while it held marks or borrowed buffers. A poisoned workspace must
    /// be [`Workspace::reset`] before its marks can be trusted again —
    /// the session boundaries (`mcc::Solver`, `QueryEngine`) do this
    /// automatically at the next solve, so one panicking query cannot
    /// corrupt a long-lived shared workspace.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// `true` when [`Workspace::poison`] was called since the last
    /// [`Workspace::reset`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Restores a consistent state: clears the visited marks and queue
    /// (capacity retained) and lifts poisoning. Buffers lost to an
    /// unwound borrower are simply re-pooled on next use.
    pub fn reset(&mut self) {
        self.clear_visited(0);
        self.queue.clear();
        self.bit_epoch = self.bit_epoch.wrapping_add(1);
        self.poisoned = false;
    }

    /// Current scratch footprint in bytes. Buffers only ever grow, so this
    /// is also the peak footprint.
    pub fn scratch_bytes(&self) -> usize {
        let node_bufs: usize = self.node_bufs.iter().map(|b| b.capacity() * 4).sum();
        let set_bufs: usize = self
            .set_bufs
            .iter()
            .map(|s| s.capacity().div_ceil(64) * 8)
            .sum();
        let usize_bufs: usize = self
            .usize_bufs
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<usize>())
            .sum();
        let word_bufs: usize = self.word_bufs.iter().map(|b| b.capacity() * 8).sum();
        let buckets: usize = self
            .bucket_lists
            .iter()
            .flat_map(|bl| bl.iter().map(|b| b.capacity() * 4))
            .sum();
        let bit_rows: usize = self.bit_rows.iter().map(|r| r.words.capacity() * 8).sum();
        self.visited.capacity() * 4
            + self.queue.capacity() * 4
            + node_bufs
            + set_bufs
            + usize_bufs
            + word_bufs
            + buckets
            + bit_rows
            + self.blocks.bytes()
    }

    /// Core BFS inside the *current* sweep: traverses the component of
    /// `start` within `alive`, appending newly visited nodes to the queue.
    /// Callers that need several components in one sweep (e.g. connected
    /// components) call [`Workspace::begin_visit`] once and this repeatedly.
    pub(crate) fn bfs_into_queue(&mut self, g: &Graph, alive: &NodeSet, start: NodeId) {
        debug_assert!(alive.contains(start), "BFS start node must be alive");
        self.stats.bfs_runs += 1;
        let mut head = self.queue.len();
        if self.mark(start) {
            self.queue.push(start);
        }
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            // Word-parallel on dense rows: each AND of a row word with
            // the alive mask screens 64 neighbors at once.
            for u in g.alive_neighbors(v, alive) {
                if self.mark(u) {
                    self.queue.push(u);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn marks_reset_per_sweep() {
        let mut ws = Workspace::new();
        ws.begin_visit(4);
        assert!(ws.mark(NodeId(2)));
        assert!(!ws.mark(NodeId(2)));
        assert!(ws.is_marked(NodeId(2)));
        assert!(!ws.is_marked(NodeId(3)));
        ws.begin_visit(4);
        assert!(!ws.is_marked(NodeId(2)));
    }

    #[test]
    fn epoch_wraparound_clears_visited() {
        let mut ws = Workspace::new();
        ws.begin_visit(2);
        ws.mark(NodeId(0));
        ws.epoch = u32::MAX; // simulate a long-lived workspace
        ws.begin_visit(2);
        assert!(!ws.is_marked(NodeId(0)));
        assert!(ws.mark(NodeId(0)));
    }

    #[test]
    fn buffer_pools_recycle() {
        let mut ws = Workspace::new();
        let mut b = ws.take_node_buf();
        b.extend([NodeId(1), NodeId(2)]);
        let cap = b.capacity();
        ws.return_node_buf(b);
        let b2 = ws.take_node_buf();
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap);
        ws.return_node_buf(b2);

        let s = ws.take_set_buf(10);
        ws.return_set_buf(s);
        let s2 = ws.take_set_buf(5);
        assert!(s2.is_empty());
        assert!(s2.capacity() >= 5);
    }

    #[test]
    fn scratch_bytes_reflects_growth() {
        let mut ws = Workspace::new();
        let before = ws.scratch_bytes();
        ws.begin_visit(1000);
        assert!(ws.scratch_bytes() >= before + 4000);
    }

    #[test]
    fn poison_and_reset_roundtrip() {
        let mut ws = Workspace::new();
        assert!(!ws.is_poisoned());
        ws.begin_visit(4);
        ws.mark(NodeId(1));
        ws.poison();
        assert!(ws.is_poisoned());
        ws.reset();
        assert!(!ws.is_poisoned());
        // Marks from before the reset are gone.
        ws.begin_visit(4);
        assert!(!ws.is_marked(NodeId(1)));
        assert!(ws.mark(NodeId(1)));
    }

    #[test]
    fn bit_row_pool_recycles_and_rows_compute() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        let mut ws = Workspace::new();
        let mut r0 = ws.take_bit_row(5);
        let mut r1 = ws.take_bit_row(5);
        r0.load_neighbors(&g, NodeId(0));
        r1.load_neighbors(&g, NodeId(1));
        assert_eq!(r0.count(), 4);
        assert_eq!(r0.and_count(&r1), 1); // N(0) ∩ N(1) = {2}
        r0.and_with(&r1);
        assert_eq!(r0.first(), Some(NodeId(2)));
        r0.andnot_with(&r1);
        assert_eq!(r0.count(), 0);
        let cap = r1.words.capacity();
        ws.return_bit_row(r0);
        ws.return_bit_row(r1);
        // The pool recycles the allocation and hands back a zeroed row.
        let r2 = ws.take_bit_row(3);
        assert_eq!(r2.count(), 0);
        assert_eq!(r2.capacity(), 3);
        assert!(r2.words.capacity() >= cap.min(1));
        ws.return_bit_row(r2);
    }

    // The check is a `debug_assert!`, so release builds have nothing to
    // reject.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "across a workspace reset")]
    fn stale_bit_row_is_rejected_on_return() {
        let mut ws = Workspace::new();
        let row = ws.take_bit_row(4);
        ws.reset(); // bumps the bit-row epoch: `row` is now stale
        ws.return_bit_row(row);
    }

    #[test]
    fn bit_rows_count_toward_scratch_bytes() {
        let mut ws = Workspace::new();
        let before = ws.scratch_bytes();
        let row = ws.take_bit_row(1024);
        ws.return_bit_row(row);
        assert!(ws.scratch_bytes() >= before + 1024 / 8);
    }

    #[test]
    fn bfs_into_queue_accumulates_components() {
        let g = graph_from_edges(5, &[(0, 1), (2, 3)]);
        let alive = NodeSet::full(5);
        let mut ws = Workspace::new();
        ws.begin_visit(5);
        ws.queue.clear();
        ws.bfs_into_queue(&g, &alive, NodeId(0));
        assert_eq!(ws.queue, vec![NodeId(0), NodeId(1)]);
        ws.bfs_into_queue(&g, &alive, NodeId(2));
        assert_eq!(ws.queue, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(ws.stats.bfs_runs, 2);
    }
}
