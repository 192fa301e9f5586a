//! The tree of blocks (Hopcroft–Tarjan) and the block pass of the
//! elimination sweeps.
//!
//! Cycles never cross articulation points, so a simple path between two
//! terminals never leaves the blocks on their path in the tree of blocks.
//! That fact drives the elimination sweeps of Algorithms 1 and 2 and of
//! KMB's prune. A [`BlockTree`] is that tree, rooted: every node knows the
//! block of its DFS tree edge, and every block its top. A [`Graph`] builds
//! the tree once, on first use ([`Graph::block_tree`]), since it depends
//! on the graph alone; the DFS is iterative (no recursion, so deep graphs
//! are safe). [`terminal_blocks_in`] marks the blocks between terminals,
//! walking only the terminals' paths to the root;
//! [`remove_if_redundant_in`] then settles most candidates outright and
//! tests the rest with a search confined to one block. The verdicts hold
//! for every alive set in which the terminals are connected.
//!
//! # The block test
//!
//! The tree also lists each block's members, its top first, and gives
//! each node a slot in its own block. A block of at most 64 members
//! keeps its adjacency as one `u64` row per slot, so its test is a flood
//! of words: gather the alive members and the ports into one word each,
//! then OR the rows of the frontier level by level, `O(|V_B|)` word
//! operations and no queue. It reads the same alive bits and port flags
//! as the BFS that larger blocks still run over the graph's adjacency,
//! so both give the same verdict.
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
//! every verdict is the one a tree rooted at the first terminal would
//! give, where all climbs meet at the root; the unit tests hold every
//! verdict and every block search to a connectivity test. When the climbs
//! end at two different roots, the terminals are disconnected.

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

/// The tree of blocks of a graph, rooted at each connected component's
/// smallest node id: each node records the block holding its DFS tree
/// edge, and each block its top, the node it hangs from (a cut vertex or
/// the root). Each block also lists its members, top first, and a block
/// of at most 64 members keeps its own adjacency as one bit row per
/// member over the member list, so its port test is a flood of words.
/// About 20–30 bytes per node; [`Graph::block_tree`] builds and keeps it.
#[derive(Debug, Clone)]
pub struct BlockTree {
    /// While the DFS runs, the node's Hopcroft–Tarjan low point (the
    /// earliest discovery time one back edge reaches from its DFS
    /// subtree). After that, the block holding the DFS tree edge into it
    /// ([`NO_BLOCK`] for roots).
    block: Vec<u32>,
    /// Per block id: its top. Id 0 is unused.
    top: Vec<u32>,
    /// Per block id `b`: its members are `members[first[b]..first[b + 1]]`.
    first: Vec<u32>,
    /// Every block's members, block after block: the top, then the nodes
    /// of the block in increasing id. A node's position in its block's
    /// list is its *slot*; a top is slot 0 of every block it heads.
    members: Vec<NodeId>,
    /// Per node: its slot in its own block (saturated at `u8::MAX` in
    /// blocks of more than [`FLOOD_MAX`] members, where no one reads it).
    slot: Vec<u8>,
    /// Parallel to `members`: in a block of at most [`FLOOD_MAX`]
    /// members, the member's neighbours inside the block as a bit row
    /// over the block's slots; 0 in larger blocks.
    rows: Vec<u64>,
}

/// The largest block whose port test is a flood of one-word rows; larger
/// blocks run a BFS over the graph's adjacency.
const FLOOD_MAX: usize = 64;

impl BlockTree {
    /// The tree of the whole graph: one iterative Hopcroft–Tarjan DFS per
    /// connected component, from its smallest node id.
    pub(crate) fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let mut block = vec![NO_BLOCK; n];
        // Every block holds a node other than its top, so there are fewer
        // than `n` of them.
        let mut top = Vec::with_capacity(n);
        top.push(0);
        // Per node: its discovery time from 1 (0 while unreached), and the
        // next neighbour index to scan while it is on the DFS stack.
        let (mut disc, mut next) = (vec![0u32; n], vec![0u32; n]);
        // The DFS stack, and the reached nodes still without a block;
        // neither holds a node twice.
        let (mut calls, mut verts) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut time = 0;
        for root in g.nodes() {
            if disc[root.index()] != 0 {
                continue;
            }
            time += 1;
            disc[root.index()] = time;
            block[root.index()] = time;
            calls.push(root);
            while let Some(&v) = calls.last() {
                let vi = v.index();
                if let Some(&u) = g.neighbors(v).get(next[vi] as usize) {
                    next[vi] += 1;
                    let ui = u.index();
                    if disc[ui] == 0 {
                        time += 1;
                        disc[ui] = time;
                        block[ui] = time;
                        calls.push(u);
                        verts.push(u);
                    } else {
                        // A back edge; the tree edge to the parent lands
                        // here too, but it cannot pull `low` below the
                        // parent.
                        block[vi] = block[vi].min(disc[ui]);
                    }
                    continue;
                }
                calls.pop();
                let Some(&p) = calls.last() else { break };
                let (pi, low) = (p.index(), block[vi]);
                block[pi] = block[pi].min(low);
                if low >= disc[pi] {
                    // No back edge from below `v` climbs above `p`: `v` and
                    // the nodes reached after it that still lack a block
                    // (all finished, so their low points are spent) form
                    // one block hanging from `p`.
                    let id = top.len() as u32;
                    top.push(p.0);
                    while let Some(w) = verts.pop() {
                        block[w.index()] = id;
                        if w == v {
                            break;
                        }
                    }
                }
            }
            block[root.index()] = NO_BLOCK;
        }
        top.shrink_to_fit();
        // A counting sort lays the blocks out: `first[b + 1]` counts block
        // `b`'s top and nodes, then becomes the end of its slice.
        let mut first = vec![0u32; top.len() + 1];
        first[2..].fill(1);
        for &b in &block {
            first[b as usize + 1] += u32::from(b != NO_BLOCK);
        }
        for b in 1..first.len() {
            first[b] += first[b - 1];
        }
        let mut members = vec![NodeId(0); first[top.len()] as usize];
        let mut slot = vec![0u8; n];
        // Reuses `next` as the next free position of each block's slice.
        for b in 1..top.len() {
            members[first[b] as usize] = NodeId(top[b]);
            next[b] = first[b] + 1;
        }
        for v in g.nodes().filter(|v| block[v.index()] != NO_BLOCK) {
            let b = block[v.index()] as usize;
            members[next[b] as usize] = v;
            slot[v.index()] = u8::try_from(next[b] - first[b]).unwrap_or(u8::MAX);
            next[b] += 1;
        }
        // Each node other than a top is scanned once, in its own block,
        // and sets both ends of every edge it has there.
        let mut rows = vec![0u64; members.len()];
        for b in 1..top.len() {
            let lo = first[b] as usize;
            let (row, list) = (&mut rows[lo..first[b + 1] as usize], &members[lo..]);
            if row.len() > FLOOD_MAX {
                continue;
            }
            for i in 1..row.len() {
                for &x in g.neighbors(list[i]) {
                    let j = if block[x.index()] == b as u32 {
                        usize::from(slot[x.index()])
                    } else if x.0 == top[b] {
                        0
                    } else {
                        continue;
                    };
                    row[i] |= 1 << j;
                    row[j] |= 1 << i;
                }
            }
        }
        BlockTree {
            block,
            top,
            first,
            members,
            slot,
            rows,
        }
    }

    /// The positions of block `id`'s members in `members` and `rows`.
    fn span(&self, id: u32) -> std::ops::Range<usize> {
        self.first[id as usize] as usize..self.first[id as usize + 1] as usize
    }

    /// Number of blocks; a bridge is a block of its own.
    pub fn block_count(&self) -> usize {
        self.top.len() - 1
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
/// [`Workspace`]: the marking and the visited bits of a block search.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockScratch {
    marks: Marks,
    /// The nodes a block search has visited; empty between searches.
    seen: NodeSet,
}

impl BlockScratch {
    /// Heap bytes held.
    pub(crate) fn bytes(&self) -> usize {
        self.marks.bytes() + self.seen.capacity().div_ceil(64) * 8
    }
}

/// The block pass of an elimination sweep: marks the blocks between
/// terminals in the graph's tree of blocks ([`Graph::block_tree`], built
/// on the first pass) and counts their ports. The result lives in the
/// workspace until the next pass and is read by
/// [`remove_if_redundant_in`]. The pass visits only the terminals' paths
/// to the root, and returns the elements visited, its work.
///
/// The verdicts hold for every alive set in which the terminals are
/// connected; the caller must know that they are. Returns `None` when the
/// terminals lie in different components of the graph: then no removal
/// keeps them connected, and the pass must not be used. An empty terminal
/// set is connected, and every node is then removable. Allocation-free
/// once the workspace has warmed up to the graph size.
pub fn terminal_blocks_in(ws: &mut Workspace, g: &Graph, terminals: &NodeSet) -> Option<u64> {
    let n = g.node_count();
    let s = &mut ws.blocks;
    if s.seen.capacity() < n {
        s.seen.reset(n);
    }
    s.marks.mark(g.block_tree(), terminals, n)
}

/// One elimination step after a successful [`terminal_blocks_in`] pass,
/// on an alive set in which the terminals are connected: removes `v`, together with `pendants`, when the
/// terminals stay connected without them, and leaves `alive` as it was
/// otherwise. `v` must be an alive non-terminal and `pendants`
/// non-terminals whose only alive neighbour is `v`; such nodes lie on no
/// path between terminals, so they never change the verdict.
///
/// The pass settles most candidates with no search. The rest get one
/// BFS confined to their block, which counts as a BFS run. Returns the
/// number of nodes that search visited, 0 when none ran. The answer is
/// the connectivity test's within `alive` at every step of a sweep that
/// starts from an alive set in which the terminals are connected and only
/// ever removes through this function (proof in the docs of
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
    let (s, tree, vi) = (&ws.blocks, g.block_tree(), v.index());
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
/// removed from `alive`: a search from a port of the block (its top, or
/// the apex's start port) that never leaves the block and stops once it
/// has reached every port. Every path between terminals crosses the block
/// from port to port, so the terminals stay connected iff this returns
/// `true`. Also returns the number of nodes reached. Either search counts
/// as a BFS run.
///
/// A block of at most [`FLOOD_MAX`] members is searched as a flood over
/// its slots: one word of alive members, one of ports, and the block's
/// own adjacency rows ORed level by level, `O(|V_B|)` word operations
/// with no queue and nothing to clear. A larger block runs a BFS over the
/// graph's adjacency; its visited set is a bitset, so a dense row yields
/// only unvisited alive nodes, a whole word at a time, and the search
/// clears its own bits on the way out. The queue is the workspace's.
fn ports_connected_in(ws: &mut Workspace, g: &Graph, alive: &NodeSet, id: u32) -> (bool, usize) {
    let BlockScratch { marks, seen } = &mut ws.blocks;
    let tree = g.block_tree();
    // The start node, and its slot in the block.
    let (start, from) = if id == marks.apex {
        let a = NodeId(marks.apex_start);
        (a, tree.slot[a.index()])
    } else {
        (NodeId(tree.top[id as usize]), 0)
    };
    ws.stats.bfs_runs += 1;
    if tree.span(id).len() <= FLOOD_MAX {
        return flood(tree, id, &marks.flags, alive, from);
    }
    let queue = &mut ws.queue;
    let want = marks.ports[id as usize];
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

/// The search of block `id`, of at most [`FLOOD_MAX`] members: floods
/// from slot `from` through the alive members until every port is reached
/// or the flood stops growing. Returns whether it reached every port, and
/// the members it reached.
fn flood(tree: &BlockTree, id: u32, flags: &[u8], alive: &NodeSet, from: u8) -> (bool, usize) {
    let span = tree.span(id);
    let rows = &tree.rows[span.clone()];
    let (mut alive_l, mut ports_l) = (0u64, 0u64);
    for (i, &u) in tree.members[span].iter().enumerate() {
        let ui = u.index();
        alive_l |= (alive.words()[ui / 64] >> (ui % 64) & 1) << i;
        ports_l |= u64::from(flags[ui] & PORT) << i;
    }
    let mut reach = 1u64 << from;
    let mut frontier = reach;
    while frontier != 0 && ports_l & !reach != 0 {
        let mut next = 0;
        while frontier != 0 {
            next |= rows[frontier.trailing_zeros() as usize];
            frontier &= frontier - 1;
        }
        frontier = next & alive_l & !reach;
        reach |= frontier;
    }
    (ports_l & !reach == 0, reach.count_ones() as usize)
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
    use crate::{shortest_path, terminals_connected};

    /// The node sets of the graph's blocks, each with its top, sorted.
    fn blocks(g: &Graph) -> Vec<Vec<usize>> {
        let tree = g.block_tree();
        let mut out: Vec<_> = tree.top[1..].iter().map(|&t| vec![t as usize]).collect();
        for v in g.nodes().filter(|v| tree.block[v.index()] != NO_BLOCK) {
            out[tree.block[v.index()] as usize - 1].push(v.index());
        }
        out.iter_mut().for_each(|b| b.sort_unstable());
        out.sort();
        out
    }

    #[test]
    fn two_triangles_sharing_a_node() {
        // Triangles 0-1-2 and 2-3-4 share node 2.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        assert_eq!(blocks(&g), [vec![0, 1, 2], vec![2, 3, 4]]);
    }

    #[test]
    fn path_is_all_bridges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(blocks(&g), [[0, 1], [1, 2], [2, 3]]);
    }

    #[test]
    fn cycle_is_one_component_no_cuts() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(blocks(&g), [[0, 1, 2, 3, 4]]);
    }

    #[test]
    fn disconnected_graph_and_isolated_nodes() {
        // Node 4 is isolated: in no block. Terminals in two components
        // fail the pass.
        let g = graph_from_edges(5, &[(0, 1), (2, 3)]);
        assert_eq!(blocks(&g), [[0, 1], [2, 3]]);
        assert!(verdicts(&g, &[0, 3]).is_none());
        assert!(verdicts(&g, &[0, 4]).is_none());
    }

    #[test]
    fn components_partition_edges() {
        let edges = [
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (5, 6),
        ];
        let g = graph_from_edges(7, &edges);
        let b = blocks(&g);
        assert_eq!(b, [vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![5, 6]]);
        for (x, y) in edges {
            let holding = b.iter().filter(|b| b.contains(&x) && b.contains(&y));
            assert_eq!(holding.count(), 1, "edge {x}-{y}");
        }
    }

    /// Runs the block pass and returns every node's verdict.
    fn verdicts_in(ws: &mut Workspace, g: &Graph, t: &NodeSet) -> Option<Vec<BlockVerdict>> {
        terminal_blocks_in(ws, g, t)?;
        Some(g.nodes().map(|v| block_verdict(ws, g, v)).collect())
    }

    fn verdicts(g: &Graph, terminals: &[u32]) -> Option<Vec<BlockVerdict>> {
        verdicts_in(&mut Workspace::new(), g, &set(g.node_count(), terminals))
    }

    /// Holds the pass to the connectivity test within `alive`, a set in
    /// which the terminals are connected (or the whole graph): the pass
    /// fails iff the terminals are disconnected in the graph, and for
    /// every alive non-terminal `v` its verdict, or its block search,
    /// says whether the terminals stay connected in `alive − v`.
    ///
    /// Returns the member count of the largest block it searched, 0 when
    /// it searched none.
    fn assert_verdicts_hold(g: &Graph, alive: &NodeSet, t: &NodeSet) -> usize {
        let mut ws = Workspace::new();
        let v = verdicts_in(&mut ws, g, t);
        let all = NodeSet::full(g.node_count());
        assert_eq!(v.is_some(), terminals_connected(g, &all, t), "{g:?} {t:?}");
        let Some(v) = v else { return 0 };
        assert!(terminals_connected(g, alive, t), "{alive:?} {t:?}");
        let mut largest = 0;
        for u in alive.iter().filter(|&u| !t.contains(u)) {
            let mut rest = alive.clone();
            rest.remove(u);
            let keeps = match v[u.index()] {
                BlockVerdict::InBlock(b) => {
                    largest = largest.max(block_len(g, b));
                    ports_connected_in(&mut ws, g, &rest, b).0
                }
                verdict => verdict == BlockVerdict::Free,
            };
            let truth = terminals_connected(g, &rest, t);
            assert_eq!(
                keeps,
                truth,
                "{u:?} {:?} in {alive:?} {g:?} {t:?}",
                v[u.index()]
            );
        }
        largest
    }

    /// [`assert_verdicts_hold`] on the whole graph and, when the
    /// terminals are connected, on a KMB-like alive set: the union of
    /// shortest paths from the first terminal to each other one. Returns
    /// the larger of the two largest blocks searched.
    fn assert_verdicts_hold_twice(g: &Graph, t: &NodeSet) -> usize {
        let all = NodeSet::full(g.node_count());
        let largest = assert_verdicts_hold(g, &all, t);
        let Some(t0) = t.first() else {
            return largest;
        };
        let mut union = NodeSet::new(g.node_count());
        for ti in t.iter() {
            let Some(path) = shortest_path(g, &all, t0, ti) else {
                return largest;
            };
            for v in path {
                union.insert(v);
            }
        }
        largest.max(assert_verdicts_hold(g, &union, t))
    }

    /// Members of block `b`, its top included.
    fn block_len(g: &Graph, b: u32) -> usize {
        g.block_tree().span(b).len()
    }

    /// splitmix64: a local, seeded generator of values below `bound`.
    fn splitmix(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
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
        let v = verdicts(&g, &[0, 5]).unwrap();
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
        let v = verdicts(&g, &[5]).unwrap();
        assert!(v.iter().enumerate().all(|(i, &x)| i == 5 || x == Free));
        for ts in [&[0, 5][..], &[5], &[1, 7], &[4, 6, 7], &[]] {
            assert_verdicts_hold_twice(&g, &set(8, ts));
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
        assert!(terminal_blocks_in(&mut ws, &g, &t).is_some());
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
        let v = verdicts(&g, &[4, 5]).unwrap();
        for i in (0..4).chain(6..14) {
            assert_eq!(v[i], BlockVerdict::Free, "node {i}");
        }
        assert!(matches!(v[14], BlockVerdict::InBlock(_)));
        assert_eq!(v[14], v[15]);
        // Terminals a_1 and a_3: a_2 separates them, a_4 hangs below.
        let v = verdicts(&g, &[1, 3]).unwrap();
        assert_eq!(v[2], BlockVerdict::Separating);
        assert_eq!(v[0], BlockVerdict::Free);
        assert_eq!(v[4], BlockVerdict::Free);
        for ts in [&[4, 5][..], &[1, 3], &[5, 15], &[3, 14], &[12, 15]] {
            assert_verdicts_hold_twice(&g, &set(16, ts));
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
        let v = verdicts_in(&mut ws, &g, &t).unwrap();
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
        assert_verdicts_hold_twice(&g, &t);
        // The same with a pendant path above the square's top.
        let h = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)]);
        assert_verdicts_hold_twice(&h, &set(6, &[3, 5]));
        assert_verdicts_hold_twice(&h, &set(6, &[3, 4]));
    }

    #[test]
    fn verdicts_hold_on_small_bipartite_graphs() {
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
                    assert_verdicts_hold_twice(&g, &t);
                }
            }
        }
    }

    #[test]
    fn verdicts_hold_on_random_graphs() {
        let mut next = splitmix(0);
        let mut largest = 0;
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
                largest = largest.max(assert_verdicts_hold_twice(&g, &t));
            }
        }
        // Both searches ran: the flood on small blocks, the BFS on these.
        assert!(largest > FLOOD_MAX, "largest block searched: {largest}");
    }

    /// `K(a, b)` on nodes `2..2 + a + b`, the `a` side first, below the
    /// pendant path `0 — 1 — 2`, with the pendant path `2 + a — n − 2 —
    /// n − 1` hanging off the `b` side: the complete block has `a + b`
    /// members and hangs from node 2.
    fn complete_with_pendants(a: usize, b: usize) -> Graph {
        let n = a + b + 4;
        let mut edges = vec![(0, 1), (1, 2), (2 + a, n - 2), (n - 2, n - 1)];
        edges.extend((2..2 + a).flat_map(|x| (2 + a..2 + a + b).map(move |y| (x, y))));
        graph_from_edges(n, &edges)
    }

    #[test]
    fn flood_and_bfs_hold_at_the_64_member_cut() {
        let mut next = splitmix(64);
        for (a, b) in [(32, 32), (32, 33)] {
            let mut g = complete_with_pendants(a, b);
            let n = g.node_count() as u32;
            let (l, r) = (2 + a as u32, 2 + (a + b) as u32);
            assert_eq!(block_len(&g, g.block_tree().block[3]), a + b);
            // Beyond the block on both sides, one port inside and one
            // beyond, all inside (ordinary top: the apex), and mixed.
            let sets = [
                vec![0, n - 1],
                vec![0, 5],
                vec![n - 1, 4, l + 3],
                vec![3, l + 4],
                vec![3, 4, l + 1],
                vec![1, r - 1, n - 2],
            ];
            for csr in [false, true] {
                if csr {
                    g.rebuild_bit_rows(usize::MAX);
                }
                for ts in &sets {
                    let t = set(n as usize, ts);
                    assert_eq!(assert_verdicts_hold_twice(&g, &t), a + b, "{ts:?}");
                    // Sparse alive sets, where single removals matter:
                    // the pendant paths and a quarter of the block.
                    for _ in 0..8 {
                        let mut alive = t.clone();
                        for v in (0..n).filter(|&v| v < 2 || v >= r || next(4) == 0) {
                            alive.insert(NodeId(v));
                        }
                        if terminals_connected(&g, &alive, &t) {
                            assert_verdicts_hold(&g, &alive, &t);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_apex_flood_starts_from_a_port() {
        // K(2,3) on 2..7 below the path 0-1-2, so its top 2 is a left
        // node; terminals 4 and 5 on the right side meet in the block,
        // whose top is then an ordinary member. Without 3, removing the
        // top cuts 4 from 5: a flood from the top's slot would still
        // reach both through the top's row.
        let g = complete_with_pendants(2, 3);
        let t = set(9, &[4, 5]);
        let mut ws = Workspace::new();
        let v = verdicts_in(&mut ws, &g, &t).unwrap();
        let BlockVerdict::InBlock(b) = v[2] else {
            panic!("the top is a member of the apex: {:?}", v[2]);
        };
        assert_eq!(ws.blocks.marks.apex, b);
        assert_eq!(block_len(&g, b), 5);
        let mut alive = NodeSet::full(9);
        alive.remove(NodeId(2));
        assert!(ports_connected_in(&mut ws, &g, &alive, b).0);
        alive.remove(NodeId(3));
        assert!(!ports_connected_in(&mut ws, &g, &alive, b).0);
        assert_verdicts_hold_twice(&g, &t);
    }

    #[test]
    fn blocks_list_their_members_and_in_block_rows() {
        let mut next = splitmix(7);
        for a in 1..40 {
            let g = complete_with_pendants(a, a);
            let n = 2 + next(70) as usize;
            let edges: Vec<_> = (0..2 * n)
                .map(|_| (next(n as u64) as usize, next(n as u64) as usize))
                .filter(|(x, y)| x != y)
                .collect();
            for g in [g, graph_from_edges(n, &edges)] {
                let tree = g.block_tree();
                for b in 1..tree.top.len() {
                    let (list, rows) = (
                        &tree.members[tree.span(b as u32)],
                        &tree.rows[tree.span(b as u32)],
                    );
                    assert_eq!(list[0].0, tree.top[b]);
                    assert!(list[1..].windows(2).all(|w| w[0] < w[1]));
                    for (i, &u) in list.iter().enumerate().skip(1) {
                        assert_eq!(tree.block[u.index()], b as u32);
                        if list.len() <= FLOOD_MAX {
                            assert_eq!(usize::from(tree.slot[u.index()]), i);
                        }
                    }
                    for (i, &u) in list.iter().enumerate() {
                        let want = if list.len() > FLOOD_MAX {
                            0
                        } else {
                            (0..list.len())
                                .filter(|&j| g.has_edge(u, list[j]))
                                .fold(0, |row, j| row | 1 << j)
                        };
                        assert_eq!(rows[i], want, "block {b} slot {i}");
                    }
                }
                // Every node but a root is listed once below a top.
                let below: usize = (1..tree.top.len())
                    .map(|b| block_len(&g, b as u32) - 1)
                    .sum();
                let roots = g.nodes().filter(|v| tree.block[v.index()] == NO_BLOCK);
                assert_eq!(below + roots.count(), g.node_count());
            }
        }
    }
}
