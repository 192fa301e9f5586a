//! Reusable scratch state for the solve path's traversals.
//!
//! The paper's elimination algorithms (Algorithms 1 and 2) run `O(|V|)`
//! connectivity tests per query. Allocating a fresh visited set, queue,
//! and output vector per test dominates the runtime on small and medium
//! instances, so the traversals a solve runs have an `*_in` variant
//! taking a [`Workspace`]: an epoch-stamped visited array (cleared in
//! `O(1)` by bumping the epoch, not by zeroing), a reusable queue whose
//! push order *is* the BFS order, pools of node lists and node sets, and
//! the block pass's marking. `mcc_steiner::Solver` keeps one workspace
//! for all its solves; after warm-up, Algorithm 2's sweep performs no
//! heap allocation at all.
//!
//! Work done once per schema — Theorem 1's recognizers and the MCS
//! order — takes no workspace: each recognizer allocates its scratch,
//! sized up front, and frees it on return.
//!
//! The allocating signatures (`bfs_order`, `component_of`, …) are thin
//! wrappers over a transient workspace.

use crate::biconnected::BlockScratch;
use crate::{Graph, NodeId, NodeSet};

/// Counters describing the traffic a [`Workspace`] has served. Deltas of
/// these before/after a solve are surfaced as `SolveStats` by
/// `mcc-steiner`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Number of BFS sweeps run through this workspace. The elimination
    /// sweeps of Algorithms 1 and 2 count one per connectivity test they
    /// still search, and each such test is confined to one biconnected
    /// block (`remove_if_redundant_in`: a BFS, or a flood of bit rows on
    /// blocks of at most 64 members); their one block pass per sweep
    /// (`terminal_blocks_in`) is no BFS and is not counted.
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
/// The visited array is private to this crate's traversals: marks are
/// only valid until the next `begin_visit`, which every `*_in` traversal
/// calls internally.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// `visited[v] == epoch` means `v` is marked in the current sweep.
    visited: Vec<u32>,
    epoch: u32,
    /// BFS queue; after a sweep, `queue[..]` is the BFS order (the head
    /// pointer is a local index, so pushed order and visit order agree).
    pub(crate) queue: Vec<NodeId>,
    /// Pool of `Vec<NodeId>` scratch buffers (see [`Workspace::take_node_buf`]).
    node_bufs: Vec<Vec<NodeId>>,
    /// Pool of `NodeSet` scratch sets (see [`Workspace::take_set_buf`]).
    set_bufs: Vec<NodeSet>,
    /// The marking of the last block pass and the block searches' scratch
    /// (see `crate::biconnected`).
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
    pub(crate) fn begin_visit(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Mark `v` in the current sweep; returns `true` if it was unmarked.
    #[inline]
    pub(crate) fn mark(&mut self, v: NodeId) -> bool {
        let slot = &mut self.visited[v.index()];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }

    /// `true` iff `v` was marked since the last [`Workspace::begin_visit`].
    #[inline]
    pub(crate) fn is_marked(&self, v: NodeId) -> bool {
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
    /// (capacity retained), drops the block pass's marking and search
    /// bits, and lifts poisoning. Buffers lost to an unwound borrower are
    /// simply re-pooled on next use.
    pub fn reset(&mut self) {
        self.visited.fill(0);
        self.epoch = 0;
        self.queue.clear();
        self.blocks = BlockScratch::default();
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
        self.visited.capacity() * 4
            + self.queue.capacity() * 4
            + node_bufs
            + set_bufs
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
