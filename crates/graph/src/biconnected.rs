//! Biconnected components, articulation points and the tree of blocks
//! (Hopcroft–Tarjan).
//!
//! Cycles never cross articulation points, so every cycle-quantified
//! property — all of the paper's (m,n)-chordality classes — holds for a
//! graph iff it holds for each biconnected block. `mcc-chordality` uses
//! this for a block-local (6,2) cross-check, and the (6,2) block-tree
//! *generator* is literally a tree of blocks, so these components also
//! certify generated workloads.
//!
//! The same fact drives the elimination sweeps of Algorithms 1 and 2: a
//! simple path between two terminals never leaves the blocks on their
//! path in the tree of blocks. A [`BlockTree`] is that tree, rooted:
//! every node knows the block of its DFS tree edge, and every block its
//! top. A [`Graph`] builds the tree of its whole node set once, on first
//! use ([`Graph::block_tree`]), since it depends on the graph alone. A
//! pass over a smaller alive set builds one per call, rooted at the first
//! terminal. [`terminal_blocks_in`] marks the blocks between terminals on
//! either tree, walking only the terminals' paths to the root;
//! [`remove_if_redundant_in`] then settles most candidates outright and
//! tests the rest with a search confined to one block.
//!
//! Every tree comes from the same iterative DFS core (no recursion, so
//! deep graphs are safe).
//!
//! # The marking
//!
//! Each terminal climbs from its own block towards the root and stops
//! where it meets a block or a node an earlier climb marked. A marked
//! block counts its *ports*: the nodes through which terminal paths enter
//! it. Ports do not depend on the root. A port is a terminal, or a cut
//! vertex with a terminal beyond it. Tops do depend on the root: when the
//! root is no terminal, the climbs also mark the chain of blocks from the
//! point where all terminal paths meet up to the root, and the marking
//! unmarks that chain again. When the paths meet inside a block (the
//! *apex*), the apex's top has no terminal beyond it: it is an ordinary
//! member of the apex, not a port, and the apex's searches start from one
//! of its ports instead. With the chain unmarked and the apex handled,
//! every verdict is the one a tree rooted at the first terminal gives,
//! where all climbs meet at the root; the unit tests compare the two on
//! every small bipartite graph. When the climbs end at two different
//! roots, the terminals are disconnected.

use crate::{Graph, NodeId, NodeSet, Workspace};

/// The block slot of a node that heads no tree edge: a DFS root, or a
/// node the DFS did not reach. Block ids start at 1.
const NO_BLOCK: u32 = 0;

/// Node flag of the marking: the node is a port of its block — a
/// terminal, or a cut vertex with a terminal beyond it.
const PORT: u8 = 1;

/// Node flag of the marking: a second climb reached this port, so
/// terminal paths meet here.
const MEET: u8 = 2;

/// The tree of blocks of a graph, rooted at one node per connected
/// component: each node records the block holding its DFS tree edge, and
/// each block its top, the node it hangs from (a cut vertex or the
/// root). About 8 bytes per node.
///
/// [`Graph::block_tree`] builds and keeps the tree of the whole graph,
/// rooted at each component's smallest node id.
#[derive(Debug, Clone, Default)]
pub struct BlockTree {
    /// While the DFS runs, the node's Hopcroft–Tarjan low point (the
    /// earliest discovery time one back edge reaches from its DFS
    /// subtree). After that, the block holding the DFS tree edge into it
    /// ([`NO_BLOCK`] for roots and unreached nodes).
    block: Vec<u32>,
    /// Per block id: its top. Id 0 is unused.
    top: Vec<u32>,
}

impl BlockTree {
    /// The tree of the whole graph: one DFS per connected component, from
    /// its smallest node id.
    pub(crate) fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let all = NodeSet::full(n);
        let mut tree = BlockTree::default();
        tree.reset(n);
        let (mut next, mut disc) = (vec![0; n], vec![0; n]);
        let (mut calls, mut verts) = (Vec::new(), Vec::new());
        for root in g.nodes() {
            if disc[root.index()] == 0 {
                tree.dfs(g, &all, root, &mut next, &mut disc, &mut calls, &mut verts);
            }
        }
        tree.top.shrink_to_fit();
        tree
    }

    /// Number of blocks; a bridge is a block of its own.
    pub fn block_count(&self) -> usize {
        self.top.len().saturating_sub(1)
    }

    /// Clears the tree for a graph of `n` nodes: nothing reached, no
    /// block.
    fn reset(&mut self, n: usize) {
        self.block.clear();
        self.block.resize(n, NO_BLOCK);
        // Sized once: every block holds a node other than its top, so
        // there are fewer than `n` of them.
        self.top.clear();
        self.top.reserve(n);
        self.top.push(0);
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        4 * (self.block.capacity() + self.top.capacity())
    }

    /// The DFS core: an iterative Hopcroft–Tarjan search from `root`
    /// within `alive`. Every node it reaches, except `root`, gets its
    /// block, and every block its top. `next` holds each node's next
    /// neighbour index while it is on the stack; `disc` holds discovery
    /// times from 1, and 0 for nodes not reached yet; `calls` (the DFS
    /// stack) and `verts` (reached nodes still without a block) are
    /// scratch. Returns the nodes reached plus the arcs scanned.
    #[expect(
        clippy::too_many_arguments,
        reason = "the DFS's scratch arrays come from two different owners"
    )]
    fn dfs(
        &mut self,
        g: &Graph,
        alive: &NodeSet,
        root: NodeId,
        next: &mut [u32],
        disc: &mut [u32],
        calls: &mut Vec<NodeId>,
        verts: &mut Vec<NodeId>,
    ) -> u64 {
        let mut time = 1;
        let mut arcs = 0;
        disc[root.index()] = time;
        self.block[root.index()] = time;
        next[root.index()] = 0;
        calls.clear();
        verts.clear();
        // Sized once: neither stack holds a node twice.
        calls.reserve(g.node_count());
        verts.reserve(g.node_count());
        calls.push(root);
        while let Some(&v) = calls.last() {
            let vi = v.index();
            if let Some(&u) = g.neighbors(v).get(next[vi] as usize) {
                next[vi] += 1;
                arcs += 1;
                let ui = u.index();
                if !alive.contains(u) {
                    continue;
                }
                if disc[ui] == 0 {
                    time += 1;
                    disc[ui] = time;
                    self.block[ui] = time;
                    next[ui] = 0;
                    calls.push(u);
                    verts.push(u);
                } else {
                    // A back edge; the tree edge to the parent lands here
                    // too, but it cannot pull `low` below the parent.
                    self.block[vi] = self.block[vi].min(disc[ui]);
                }
                continue;
            }
            calls.pop();
            let Some(&p) = calls.last() else { break };
            let (pi, low) = (p.index(), self.block[vi]);
            self.block[pi] = self.block[pi].min(low);
            if low >= disc[pi] {
                // No back edge from below `v` climbs above `p`: `v` and
                // the nodes reached after it that still lack a block
                // (all finished, so their low points are spent) form one
                // block hanging from `p`.
                let id = self.top.len() as u32;
                self.top.push(p.0);
                while let Some(w) = verts.pop() {
                    self.block[w.index()] = id;
                    if w == v {
                        break;
                    }
                }
            }
        }
        self.block[root.index()] = NO_BLOCK;
        u64::from(time) + arcs
    }
}

/// How the last [`terminal_blocks_in`] pass settles the removal of one
/// alive, non-terminal node, as long as the terminals stay connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockVerdict {
    /// In no block between terminals: no simple path between terminals
    /// uses the node, so removing it keeps them connected.
    Free,
    /// A cut vertex with terminals on both sides: removing it
    /// disconnects them.
    Separating,
    /// In exactly one block between terminals, whose id this is:
    /// removing it keeps the terminals connected iff the block's ports
    /// stay connected inside the block ([`ports_connected_in`]).
    InBlock(u32),
}

/// The per-query state of the marking, kept in a [`Workspace`]: a flag
/// byte per node and a port count per block, all zero between passes
/// except what the last pass touched. The next pass clears exactly that,
/// through the list of what it marked, so a pass costs the length of the
/// terminals' paths and never a fill of `n` slots.
#[derive(Debug, Clone, Default)]
struct Marks {
    /// Per node: [`PORT`] and [`MEET`].
    flags: Vec<u8>,
    /// Per block id: 0 for a block on no terminal path, else its number
    /// of ports.
    ports: Vec<u32>,
    /// Every node the last marking flagged, with its block.
    marked: Vec<(NodeId, u32)>,
    /// The apex, a block between terminals whose top is no port, or
    /// [`NO_BLOCK`].
    apex: u32,
    /// A port of the apex, where its searches start.
    apex_start: u32,
}

impl Marks {
    /// Marks the blocks between `terminals` on `tree`, a tree over `n`
    /// nodes, and returns the elements visited; `None` when the
    /// terminals lie in different components. Clears the last marking
    /// first.
    fn mark(&mut self, tree: &BlockTree, terminals: &NodeSet, n: usize) -> Option<u64> {
        for &(w, b) in &self.marked {
            self.flags[w.index()] = 0;
            self.ports[b as usize] = 0;
        }
        self.marked.clear();
        self.apex = NO_BLOCK;
        if self.flags.len() < n {
            self.flags.resize(n, 0);
            // No node is flagged twice.
            self.marked.reserve(n);
        }
        if self.ports.len() < tree.top.len() {
            self.ports.resize(tree.top.len(), 0);
        }
        let mut ts = terminals.iter();
        let Some(first) = ts.next() else {
            return Some(0);
        };
        let mut work = 0;
        self.climb(tree, first, &mut work);
        for t in ts {
            if self.climb(tree, t, &mut work).is_some() {
                return None; // a root the first terminal's climb missed
            }
        }
        // The meeting point: the highest element of the first terminal's
        // path where another climb joined it (a block with two ports
        // below its top, or a node flagged [`MEET`]). A block is kept with
        // the port below it, where its searches would start.
        let (mut meet, mut meet_block) = (first, NO_BLOCK);
        let mut w = first;
        loop {
            work += 1;
            let b = tree.block[w.index()];
            if b == NO_BLOCK {
                break;
            }
            if self.ports[b as usize] > 2 {
                (meet, meet_block) = (w, b);
            }
            w = NodeId(tree.top[b as usize]);
            if self.flags[w.index()] & MEET != 0 {
                (meet, meet_block) = (w, NO_BLOCK);
            }
        }
        // Above the meeting point only the first terminal's climb ran:
        // that chain of blocks lies between no two terminals.
        let mut up = if meet_block == NO_BLOCK {
            tree.block[meet.index()]
        } else {
            let top = tree.top[meet_block as usize];
            self.ports[meet_block as usize] -= 1;
            self.flags[top as usize] = 0;
            (self.apex, self.apex_start) = (meet_block, meet.0);
            tree.block[top as usize]
        };
        while up != NO_BLOCK {
            work += 1;
            self.ports[up as usize] = 0;
            let top = tree.top[up as usize] as usize;
            self.flags[top] = 0;
            up = tree.block[top];
        }
        Some(work)
    }

    /// Makes `w` a port and climbs: a block that gains its first port
    /// counts its top as a port too, and the top becomes a port of its
    /// own block in turn. Stops at a node or block marked before (then
    /// returns `None`) or at a root, which it returns.
    fn climb(&mut self, tree: &BlockTree, mut w: NodeId, work: &mut u64) -> Option<NodeId> {
        loop {
            *work += 1;
            let flag = &mut self.flags[w.index()];
            if *flag & PORT != 0 {
                *flag |= MEET;
                return None;
            }
            *flag = PORT;
            let b = tree.block[w.index()];
            self.marked.push((w, b));
            if b == NO_BLOCK {
                return Some(w);
            }
            let ports = &mut self.ports[b as usize];
            *ports += 1;
            if *ports > 1 {
                return None; // the block was already between terminals
            }
            *ports = 2;
            w = NodeId(tree.top[b as usize]);
        }
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        self.flags.capacity() + 4 * self.ports.capacity() + 8 * self.marked.capacity()
    }
}

/// Scratch of the block pass and the block searches, kept in a
/// [`Workspace`]: the marking, the visited bits of a block search and,
/// for passes over a partial alive set, that set's tree of blocks and its
/// DFS cursor. The DFS keeps its discovery times in the workspace's
/// visited array.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockScratch {
    /// The tree of the last pass over a partial alive set.
    own: BlockTree,
    /// The next neighbour index to scan while the node is on the DFS
    /// stack.
    next: Vec<u32>,
    /// `true` when the last pass marked `own`, `false` when it marked
    /// the graph's tree.
    own_tree: bool,
    marks: Marks,
    /// The nodes a block search has visited; empty between searches.
    seen: NodeSet,
}

impl BlockScratch {
    /// Heap bytes held.
    pub(crate) fn bytes(&self) -> usize {
        self.own.bytes()
            + 4 * self.next.capacity()
            + self.marks.bytes()
            + self.seen.capacity().div_ceil(64) * 8
    }
}

/// The biconnected structure of a graph.
#[derive(Debug, Clone)]
pub struct Biconnected {
    /// Each biconnected component as its edge list. Bridges appear as
    /// single-edge components; isolated nodes appear in no component.
    pub components: Vec<Vec<(NodeId, NodeId)>>,
    /// The articulation (cut) points.
    pub articulation_points: NodeSet,
}

impl Biconnected {
    /// The node set of component `i`.
    pub fn component_nodes(&self, i: usize, n: usize) -> NodeSet {
        let mut s = NodeSet::new(n);
        for &(a, b) in &self.components[i] {
            s.insert(a);
            s.insert(b);
        }
        s
    }
}

/// Computes the biconnected components of the whole graph from a tree of
/// blocks built for the call (the graph's own tree is left unbuilt).
pub fn biconnected_components(g: &Graph) -> Biconnected {
    let n = g.node_count();
    let tree = BlockTree::build(g);
    // A top with a block of its own is a cut vertex; a DFS root is one
    // when it tops two blocks.
    let mut articulation_points = NodeSet::new(n);
    let mut roots = NodeSet::new(n);
    for &t in &tree.top[1..] {
        let t = NodeId(t);
        if tree.block[t.index()] != NO_BLOCK || !roots.insert(t) {
            articulation_points.insert(t);
        }
    }
    let mut components = vec![Vec::new(); tree.block_count()];
    for u in g.nodes() {
        let b = tree.block[u.index()];
        if b == NO_BLOCK {
            continue;
        }
        for &w in g.neighbors(u) {
            // Every edge of block `b` once: from its non-top end, or
            // from the smaller end when neither is the top.
            if w.0 == tree.top[b as usize] || (tree.block[w.index()] == b && u < w) {
                components[b as usize - 1].push((u, w));
            }
        }
    }
    Biconnected {
        components,
        articulation_points,
    }
}

/// The block pass of an elimination sweep: marks the blocks between
/// terminals in the tree of blocks and counts their ports. The result
/// lives in the workspace until the next pass and is read by
/// [`remove_if_redundant_in`].
///
/// With `within` `None` the pass covers the whole graph and marks the
/// graph's own tree ([`Graph::block_tree`], built on the first such
/// pass): it visits only the terminals' paths to the root, and the
/// elements visited are its work. With `Some(alive)` it first builds the
/// tree of the graph `alive` induces, by a DFS from the first terminal,
/// and its work also counts the nodes that DFS reached and the arcs it
/// scanned.
///
/// Returns the work, or `None` when some terminal is not alive or not
/// connected to the first: then no removal keeps the terminals
/// connected, and the pass must not be used. An empty terminal set is
/// connected, and every node is then removable. Allocation-free once the
/// workspace has warmed up to the graph size.
pub fn terminal_blocks_in(
    ws: &mut Workspace,
    g: &Graph,
    within: Option<&NodeSet>,
    terminals: &NodeSet,
) -> Option<u64> {
    let n = g.node_count();
    let mut work = 0;
    if ws.blocks.seen.capacity() < n {
        ws.blocks.seen.reset(n);
    }
    ws.blocks.own_tree = within.is_some();
    if let Some(alive) = within {
        if !terminals.is_subset_of(alive) {
            return None;
        }
        let s = &mut ws.blocks;
        s.own.reset(n);
        if s.next.len() < n {
            s.next.resize(n, 0);
        }
        if let Some(root) = terminals.first() {
            let mut calls = ws.take_node_buf();
            let mut verts = std::mem::take(&mut ws.queue);
            ws.clear_visited(n);
            let s = &mut ws.blocks;
            work = s.own.dfs(
                g,
                alive,
                root,
                &mut s.next,
                &mut ws.visited,
                &mut calls,
                &mut verts,
            );
            ws.clear_visited(n);
            ws.queue = verts;
            ws.return_node_buf(calls);
        }
    }
    let s = &mut ws.blocks;
    let tree = if s.own_tree { &s.own } else { g.block_tree() };
    Some(work + s.marks.mark(tree, terminals, n)?)
}

/// One elimination step after a successful [`terminal_blocks_in`] pass
/// over `alive`: removes `v`, together with `pendants`, when the
/// terminals stay connected without them, and leaves `alive` as it was
/// otherwise. `v` must be an alive non-terminal and `pendants`
/// non-terminals whose only alive neighbour is `v`; such nodes lie on no
/// path between terminals, so they never change the verdict.
///
/// The pass settles most candidates with no search. The rest get one
/// BFS confined to their block, which counts as a BFS run. Returns the
/// number of nodes that search visited, 0 when none ran. The answer is
/// the whole-graph connectivity test's at every step of a sweep that
/// only ever removes through this function (proof in the docs of
/// `mcc-steiner`'s `algorithm2` module).
pub fn remove_if_redundant_in(
    ws: &mut Workspace,
    g: &Graph,
    alive: &mut NodeSet,
    v: NodeId,
    pendants: &[NodeId],
) -> usize {
    let verdict = block_verdict(ws, g, v);
    if verdict == BlockVerdict::Separating {
        return 0;
    }
    alive.remove(v);
    for &u in pendants {
        alive.remove(u);
    }
    let BlockVerdict::InBlock(b) = verdict else {
        return 0;
    };
    let (connected, visited) = ports_connected_in(ws, g, alive, b);
    if !connected {
        alive.insert(v);
        for &u in pendants {
            alive.insert(u);
        }
    }
    visited
}

/// The verdict of the last [`terminal_blocks_in`] pass on removing `v`,
/// an alive non-terminal node.
///
/// Both settled verdicts stay true while the sweep shrinks the alive set
/// and keeps the terminals connected: a simple path of the smaller set is
/// one of the larger set, so it still avoids a [`BlockVerdict::Free`]
/// node, and a set that a [`BlockVerdict::Separating`] node cut still
/// falls apart without it.
fn block_verdict(ws: &Workspace, g: &Graph, v: NodeId) -> BlockVerdict {
    let (s, vi) = (&ws.blocks, v.index());
    let tree = if s.own_tree { &s.own } else { g.block_tree() };
    let b = tree.block[vi];
    if s.marks.flags[vi] & PORT != 0 {
        BlockVerdict::Separating
    } else if s.marks.ports[b as usize] > 0 {
        // `ports[NO_BLOCK]` stays 0.
        BlockVerdict::InBlock(b)
    } else if s.marks.apex != NO_BLOCK && tree.top[s.marks.apex as usize] == v.0 {
        BlockVerdict::InBlock(s.marks.apex)
    } else {
        BlockVerdict::Free
    }
}

/// Tests an [`BlockVerdict::InBlock`] candidate that has just been
/// removed from `alive`: a BFS from a port of the block (its top, or the
/// apex's start port) that never leaves the block and stops once it has
/// reached every port. Every path between terminals crosses the block
/// from port to port, so the terminals stay connected iff this returns
/// `true`. Also returns the number of nodes visited.
///
/// The visited set is a bitset, so a dense row yields only unvisited
/// alive nodes, a whole word at a time; the search clears its own bits on
/// the way out. The queue is the workspace's.
fn ports_connected_in(ws: &mut Workspace, g: &Graph, alive: &NodeSet, id: u32) -> (bool, usize) {
    let BlockScratch {
        own,
        own_tree,
        marks,
        seen,
        ..
    } = &mut ws.blocks;
    let tree = if *own_tree { &*own } else { g.block_tree() };
    let queue = &mut ws.queue;
    let start = if id == marks.apex {
        NodeId(marks.apex_start)
    } else {
        NodeId(tree.top[id as usize])
    };
    let want = marks.ports[id as usize];
    ws.stats.bfs_runs += 1;
    queue.clear();
    queue.push(start);
    seen.insert(start);
    let mut found = 1;
    let mut head = 0;
    while found < want && head < queue.len() {
        let v = queue[head];
        head += 1;
        match g.neighbors_bits(v) {
            Some(row) => {
                for (wi, &r) in row.iter().enumerate() {
                    let mut word = r & alive.words()[wi] & !seen.words()[wi];
                    while word != 0 {
                        let u = NodeId::from_index(wi * 64 + word.trailing_zeros() as usize);
                        word &= word - 1;
                        found += enter(u, id, tree, &marks.flags, seen, queue);
                    }
                }
            }
            None => {
                for &u in g.neighbors(v) {
                    if alive.contains(u) && !seen.contains(u) {
                        found += enter(u, id, tree, &marks.flags, seen, queue);
                    }
                }
            }
        }
    }
    for &u in queue.iter() {
        seen.remove(u);
    }
    (found == want, queue.len())
}

/// Admits `u` to the search of block `id` when it belongs to that block
/// (its top included, which only the apex's search meets unvisited);
/// returns 1 when it is a port, else 0.
fn enter(
    u: NodeId,
    id: u32,
    tree: &BlockTree,
    flags: &[u8],
    seen: &mut NodeSet,
    queue: &mut Vec<NodeId>,
) -> u32 {
    if tree.block[u.index()] != id && tree.top[id as usize] != u.0 {
        return 0;
    }
    seen.insert(u);
    queue.push(u);
    u32::from(flags[u.index()] & PORT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::terminals_connected;

    #[test]
    fn two_triangles_sharing_a_node() {
        // Triangles 0-1-2 and 2-3-4 share node 2.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        let b = biconnected_components(&g);
        assert_eq!(b.components.len(), 2);
        assert_eq!(b.articulation_points.to_vec(), vec![NodeId(2)]);
        for (i, comp) in b.components.iter().enumerate() {
            assert_eq!(comp.len(), 3, "component {i} is a triangle");
        }
    }

    #[test]
    fn path_is_all_bridges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = biconnected_components(&g);
        assert_eq!(b.components.len(), 3);
        assert!(b.components.iter().all(|c| c.len() == 1));
        assert_eq!(b.articulation_points.to_vec(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn cycle_is_one_component_no_cuts() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let b = biconnected_components(&g);
        assert_eq!(b.components.len(), 1);
        assert_eq!(b.components[0].len(), 5);
        assert!(b.articulation_points.is_empty());
    }

    #[test]
    fn disconnected_graph_and_isolated_nodes() {
        let g = graph_from_edges(5, &[(0, 1), (2, 3)]);
        let b = biconnected_components(&g);
        assert_eq!(b.components.len(), 2);
        assert!(b.articulation_points.is_empty());
        // Node 4 is isolated: in no component.
        for i in 0..b.components.len() {
            assert!(!b.component_nodes(i, 5).contains(NodeId(4)));
        }
    }

    #[test]
    fn components_partition_edges() {
        let g = graph_from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
            ],
        );
        let b = biconnected_components(&g);
        let total: usize = b.components.iter().map(|c| c.len()).sum();
        assert_eq!(total, g.edge_count());
        // Cut points: 2 (triangle/bridge), 3 (bridge/square), 5 (square/bridge).
        assert_eq!(
            b.articulation_points.to_vec(),
            vec![NodeId(2), NodeId(3), NodeId(5)]
        );
    }

    /// Runs the block pass over `within` (`None`: the graph's own tree)
    /// and returns every node's verdict.
    fn verdicts_in(
        ws: &mut Workspace,
        g: &Graph,
        within: Option<&NodeSet>,
        t: &NodeSet,
    ) -> Option<Vec<BlockVerdict>> {
        terminal_blocks_in(ws, g, within, t)?;
        Some(g.nodes().map(|v| block_verdict(ws, g, v)).collect())
    }

    /// The pass over `alive`, with a tree built for the call.
    fn verdicts(g: &Graph, alive: &NodeSet, terminals: &[u32]) -> Option<Vec<BlockVerdict>> {
        let t = NodeSet::from_nodes(g.node_count(), terminals.iter().map(|&v| NodeId(v)));
        verdicts_in(&mut Workspace::new(), g, Some(alive), &t)
    }

    /// A verdict with its block named by the least node in that block
    /// (block ids differ between trees).
    fn named(v: &[BlockVerdict]) -> Vec<(u8, u32)> {
        let first = |id| v.iter().position(|&x| x == BlockVerdict::InBlock(id));
        v.iter()
            .map(|&x| match x {
                BlockVerdict::Free => (0, 0),
                BlockVerdict::Separating => (1, 0),
                BlockVerdict::InBlock(id) => (2, first(id).unwrap_or(0) as u32),
            })
            .collect()
    }

    /// The marking of the graph's own tree against a tree built per call
    /// from the first terminal (the pass before the graph kept its
    /// tree): every non-terminal gets the same verdict, and every
    /// in-block search gives the same answer. Both are also held to the
    /// whole-graph connectivity test.
    fn assert_same_verdicts(g: &Graph, t: &NodeSet) {
        let all = NodeSet::full(g.node_count());
        let (mut shared, mut per_call) = (Workspace::new(), Workspace::new());
        let a = verdicts_in(&mut shared, g, None, t);
        let b = verdicts_in(&mut per_call, g, Some(&all), t);
        let connected = terminals_connected(g, &all, t);
        assert_eq!(a.is_some(), connected, "{g:?} {t:?}");
        assert_eq!(b.is_some(), connected, "{g:?} {t:?}");
        let (Some(a), Some(b)) = (a, b) else { return };
        let (na, nb) = (named(&a), named(&b));
        for v in g.nodes().filter(|&v| !t.contains(v)) {
            let i = v.index();
            assert_eq!(na[i], nb[i], "verdict of {v:?} in {g:?} {t:?}");
            let mut alive = all.clone();
            alive.remove(v);
            let truth = terminals_connected(g, &alive, t);
            match (a[i], b[i]) {
                (BlockVerdict::InBlock(x), BlockVerdict::InBlock(y)) => {
                    let (pa, _) = ports_connected_in(&mut shared, g, &alive, x);
                    let (pb, _) = ports_connected_in(&mut per_call, g, &alive, y);
                    assert_eq!(pa, pb, "search for {v:?} in {g:?} {t:?}");
                    assert_eq!(pa, truth, "search for {v:?} in {g:?} {t:?}");
                }
                (verdict, _) => {
                    let keeps = verdict == BlockVerdict::Free;
                    assert_eq!(keeps, truth, "verdict of {v:?} in {g:?} {t:?}");
                }
            }
        }
    }

    /// A chain of squares `a_i — b_i — a_{i+1}`, `a_i — c_i — a_{i+1}`:
    /// `a_i` is node `i`, `b_i` and `c_i` are `blocks + 1 + 2i` and the
    /// next id. The graph's tree hangs every square from `a_0`.
    fn square_chain(blocks: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..blocks {
            let b = blocks + 1 + 2 * i;
            edges.extend([(i, b), (b, i + 1), (i, b + 1), (b + 1, i + 1)]);
        }
        graph_from_edges(3 * blocks + 1, &edges)
    }

    fn set(n: usize, nodes: &[u32]) -> NodeSet {
        NodeSet::from_nodes(n, nodes.iter().map(|&v| NodeId(v)))
    }

    #[test]
    fn block_pass_settles_cut_vertices_and_dangling_blocks() {
        // Triangle 0-1-2, bridge 2-3, square 3-4-5-6, pendant 6-7.
        let g = graph_from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 3),
                (6, 7),
            ],
        );
        let all = NodeSet::full(8);
        let v = verdicts(&g, &all, &[0, 5]).unwrap();
        use BlockVerdict::*;
        // 2 and 3 separate 0 from 5; the pendant 7 hangs off the path.
        assert_eq!(v[2], Separating);
        assert_eq!(v[3], Separating);
        assert_eq!(v[7], Free);
        assert!(matches!(v[1], InBlock(_)));
        assert!(matches!(v[4], InBlock(_)));
        assert_eq!(v[4], v[6], "4 and 6 share the square");
        assert_ne!(v[1], v[4]);
        // With one terminal nothing is between terminals.
        let v = verdicts(&g, &all, &[5]).unwrap();
        assert!(v.iter().enumerate().all(|(i, &x)| i == 5 || x == Free));
        // A dead or unreachable terminal fails the pass.
        let mut alive = all.clone();
        alive.remove(NodeId(3));
        assert!(verdicts(&g, &alive, &[0, 5]).is_none());
        assert!(verdicts(&g, &alive, &[0, 3]).is_none());
        for ts in [&[0, 5][..], &[5], &[1, 7], &[4, 6, 7], &[]] {
            assert_same_verdicts(&g, &set(8, ts));
        }
    }

    #[test]
    fn block_search_stays_inside_its_block() {
        // Square 0-1-2-3 plus a detour 1-4-5-3: one block. Terminals 0
        // and 2.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 3)]);
        let mut alive = NodeSet::full(6);
        let t = set(6, &[0, 2]);
        let mut ws = Workspace::new();
        assert!(terminal_blocks_in(&mut ws, &g, Some(&alive), &t).is_some());
        let BlockVerdict::InBlock(b) = block_verdict(&ws, &g, NodeId(1)) else {
            panic!("node 1 lies in the terminals' block");
        };
        alive.remove(NodeId(1));
        assert!(ports_connected_in(&mut ws, &g, &alive, b).0);
        alive.remove(NodeId(3));
        assert!(!ports_connected_in(&mut ws, &g, &alive, b).0);
        assert_eq!(ws.stats.bfs_runs, 2);
    }

    #[test]
    fn graph_tree_is_built_once_and_ignored_by_equality() {
        let g = square_chain(3);
        let fresh = g.clone();
        let tree = g.block_tree() as *const BlockTree;
        assert_eq!(g.block_tree().block_count(), 3);
        assert!(std::ptr::eq(tree, g.block_tree()));
        assert_eq!(g, fresh);
        assert_eq!(format!("{g:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn terminals_in_a_leaf_branch_far_from_the_root() {
        // Five squares hang from node 0; the terminals a_4 and a_5 close
        // the last one. The climbs run on from a_4 to the root, and that
        // chain must be unmarked: a_0..a_3 and the first four squares'
        // midpoints lie between no terminals.
        let g = square_chain(5);
        let t = set(16, &[4, 5]);
        let mut ws = Workspace::new();
        let v = verdicts_in(&mut ws, &g, None, &t).unwrap();
        for i in (0..4).chain(6..14) {
            assert_eq!(v[i], BlockVerdict::Free, "node {i}");
        }
        assert!(matches!(v[14], BlockVerdict::InBlock(_)));
        assert_eq!(v[14], v[15]);
        // Terminals a_1 and a_3: a_2 separates them, a_4 hangs below.
        let t2 = set(16, &[1, 3]);
        let v = verdicts_in(&mut ws, &g, None, &t2).unwrap();
        assert_eq!(v[2], BlockVerdict::Separating);
        assert_eq!(v[0], BlockVerdict::Free);
        assert_eq!(v[4], BlockVerdict::Free);
        for ts in [&[4, 5][..], &[1, 3], &[5, 15], &[3, 14], &[12, 15]] {
            assert_same_verdicts(&g, &set(16, ts));
        }
    }

    #[test]
    fn the_apex_top_is_an_ordinary_member() {
        // Terminals b_4 and c_4, the midpoints of the last of five
        // squares: their paths meet inside that square, whose top a_4
        // has no terminal beyond it. a_4 is tested in the square like
        // a_5, and the square's search starts from a port.
        let g = square_chain(5);
        let t = set(16, &[14, 15]);
        let mut ws = Workspace::new();
        let v = verdicts_in(&mut ws, &g, None, &t).unwrap();
        let BlockVerdict::InBlock(b) = v[4] else {
            panic!("a_4 is a member of the apex: {:?}", v[4]);
        };
        assert_eq!(v[5], v[4]);
        assert!((0..4).all(|i| v[i] == BlockVerdict::Free));
        let mut alive = NodeSet::full(16);
        alive.remove(NodeId(4));
        assert!(ports_connected_in(&mut ws, &g, &alive, b).0);
        alive.remove(NodeId(5));
        assert!(!ports_connected_in(&mut ws, &g, &alive, b).0);
        assert_same_verdicts(&g, &t);
        // The same with a pendant path above the square's top.
        let h = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)]);
        assert_same_verdicts(&h, &set(6, &[3, 5]));
        assert_same_verdicts(&h, &set(6, &[3, 4]));
    }

    #[test]
    fn marking_matches_a_first_terminal_tree_on_small_bipartite_graphs() {
        // Every bipartite graph with |V1|, |V2| <= 3 (V1 first), under
        // every terminal subset.
        for (a, b) in (1..=3).flat_map(|a| (1..=3).map(move |b| (a, b))) {
            let n = a + b;
            let pairs: Vec<(usize, usize)> = (0..a)
                .flat_map(|x| (0..b).map(move |y| (x, a + y)))
                .collect();
            for mask in 0u32..1 << pairs.len() {
                let edges: Vec<_> = (0..pairs.len())
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(|i| pairs[i])
                    .collect();
                let g = graph_from_edges(n, &edges);
                for ts in 0u32..1 << n {
                    let t = NodeSet::from_nodes(
                        n,
                        (0..n as u32).filter(|&v| ts >> v & 1 == 1).map(NodeId),
                    );
                    assert_same_verdicts(&g, &t);
                }
            }
        }
    }

    #[test]
    fn marking_matches_a_first_terminal_tree_on_random_graphs() {
        // splitmix64: a local, seeded generator.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for round in 0..400 {
            let n = 2 + next(90) as usize;
            let mut edges = Vec::new();
            // Half the graphs get a spanning tree first (connected), the
            // rest only sparse random edges (usually disconnected).
            if round % 2 == 0 {
                edges.extend((1..n).map(|v| (next(v as u64) as usize, v)));
            }
            for _ in 0..next(n as u64 + 1) {
                let (x, y) = (next(n as u64) as usize, next(n as u64) as usize);
                if x != y {
                    edges.push((x, y));
                }
            }
            let mut g = graph_from_edges(n, &edges);
            if round % 3 == 0 {
                g.rebuild_bit_rows(usize::MAX); // CSR-only block searches
            }
            for _ in 0..4 {
                let k = next(7);
                let t = NodeSet::from_nodes(n, (0..k).map(|_| NodeId(next(n as u64) as u32)));
                assert_same_verdicts(&g, &t);
            }
        }
    }

    #[test]
    fn component_nodes_helper() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let b = biconnected_components(&g);
        let nodes = b.component_nodes(0, 3);
        assert_eq!(nodes.len(), 3);
    }
}
