//! Biconnected components and articulation points (Hopcroft–Tarjan).
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
//! path in the tree of blocks. [`terminal_blocks_in`] runs one DFS from a
//! terminal and marks those blocks; [`remove_if_redundant_in`] then
//! settles most candidates outright and tests the rest with a search
//! confined to one block.
//!
//! Both [`biconnected_components`] and the block pass run the same
//! iterative DFS core (no recursion, so deep graphs are safe).

use crate::{Graph, NodeId, NodeSet, Workspace};

/// The block slot of a node that heads no tree edge: a DFS root, or a
/// node the DFS did not reach. Block ids start at 1.
const NO_BLOCK: u32 = 0;

/// Flag bit of a block slot: the node is a *port* of its block — a
/// terminal, or the top of a block that leads to a terminal.
const PORT: u32 = 1 << 31;

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

/// Scratch of the block pass and the block searches, kept in a
/// [`Workspace`]: two `u32` and one bit per node, and two `u32` per
/// block. The DFS keeps its discovery times in the workspace's visited
/// array.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockScratch {
    /// The next neighbour index to scan while the node is on the DFS
    /// stack.
    next: Vec<u32>,
    /// While the node is on the DFS stack, its Hopcroft–Tarjan low point
    /// (the earliest discovery time one back edge reaches from its DFS
    /// subtree). After that, the block holding the DFS tree edge into it
    /// ([`NO_BLOCK`] for roots and unreached nodes), plus the [`PORT`]
    /// bit.
    block: Vec<u32>,
    /// Per block id: its top, the node it hangs from in the tree of
    /// blocks (a cut vertex or the DFS root). Id 0 is unused.
    top: Vec<u32>,
    /// Per block id: 0 for a block on no terminal path, else its number
    /// of ports (its top included).
    ports: Vec<u32>,
    /// The nodes a block search has visited; empty between searches.
    seen: NodeSet,
}

impl BlockScratch {
    /// Clears the scratch for a graph of `n` nodes: nothing reached, no
    /// block.
    fn reset(&mut self, n: usize) {
        // Written on discovery; stale values are never read.
        self.next.resize(n, 0);
        self.block.clear();
        self.block.resize(n, NO_BLOCK);
        // Sized once: every block holds a node other than its top, so
        // there are fewer than `n` of them.
        self.top.clear();
        self.top.reserve(n);
        self.top.push(0);
        self.ports.clear();
        self.ports.reserve(n);
        self.ports.push(0);
        self.seen.reset(n);
    }

    /// Heap bytes held.
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.next.capacity()
            + self.block.capacity()
            + self.top.capacity()
            + self.ports.capacity())
            + self.seen.capacity().div_ceil(64) * 8
    }

    /// The DFS core: an iterative Hopcroft–Tarjan search from `root`
    /// within `alive`. Every node it reaches, except `root`, gets its
    /// block, and every block its top. `disc` holds discovery times from
    /// 1, and 0 for nodes not reached yet; `calls` (the DFS stack) and
    /// `verts` (reached nodes still without a block) are scratch.
    fn dfs(
        &mut self,
        g: &Graph,
        alive: &NodeSet,
        root: NodeId,
        disc: &mut [u32],
        calls: &mut Vec<NodeId>,
        verts: &mut Vec<NodeId>,
    ) {
        let mut time = 1;
        disc[root.index()] = time;
        self.block[root.index()] = time;
        self.next[root.index()] = 0;
        calls.clear();
        verts.clear();
        // Sized once: neither stack holds a node twice.
        calls.reserve(g.node_count());
        verts.reserve(g.node_count());
        calls.push(root);
        while let Some(&v) = calls.last() {
            let vi = v.index();
            if let Some(&u) = g.neighbors(v).get(self.next[vi] as usize) {
                self.next[vi] += 1;
                let ui = u.index();
                if !alive.contains(u) {
                    continue;
                }
                if disc[ui] == 0 {
                    time += 1;
                    disc[ui] = time;
                    self.block[ui] = time;
                    self.next[ui] = 0;
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
                self.ports.push(0);
                while let Some(w) = verts.pop() {
                    self.block[w.index()] = id;
                    if w == v {
                        break;
                    }
                }
            }
        }
        self.block[root.index()] = NO_BLOCK;
    }

    /// Admits `u` to the search of block `id` when it belongs to that
    /// block; returns 1 when it is a port, else 0.
    fn enter(&mut self, u: NodeId, id: u32, queue: &mut Vec<NodeId>) -> u32 {
        let slot = self.block[u.index()];
        if slot & !PORT != id {
            return 0;
        }
        self.seen.insert(u);
        queue.push(u);
        u32::from(slot & PORT != 0)
    }

    /// Makes `w` a port of its block. A block that gains its first port
    /// lies between terminals: it counts its top as a port too, and the
    /// top becomes a port of its own block in turn, up to the root.
    fn add_port(&mut self, mut w: NodeId) {
        loop {
            let slot = self.block[w.index()];
            if slot & PORT != 0 || slot == NO_BLOCK {
                return; // already counted, or the root
            }
            self.block[w.index()] = slot | PORT;
            let b = slot as usize;
            self.ports[b] += 1;
            if self.ports[b] > 1 {
                return; // the block was already between terminals
            }
            self.ports[b] += 1;
            w = NodeId(self.top[b]);
        }
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

/// Computes the biconnected components of the whole graph with the
/// iterative DFS core, one search per connected component.
pub fn biconnected_components(g: &Graph) -> Biconnected {
    let n = g.node_count();
    let all = NodeSet::full(n);
    let mut s = BlockScratch::default();
    s.reset(n);
    let mut disc = vec![0; n];
    let (mut calls, mut verts) = (Vec::new(), Vec::new());
    for root in g.nodes() {
        if disc[root.index()] == 0 {
            s.dfs(g, &all, root, &mut disc, &mut calls, &mut verts);
        }
    }
    // A top with a block of its own is a cut vertex; a DFS root is one
    // when it tops two blocks.
    let mut articulation_points = NodeSet::new(n);
    let mut roots = NodeSet::new(n);
    for &t in &s.top[1..] {
        let t = NodeId(t);
        if s.block[t.index()] != NO_BLOCK || !roots.insert(t) {
            articulation_points.insert(t);
        }
    }
    let mut components = vec![Vec::new(); s.top.len() - 1];
    for u in g.nodes() {
        let b = s.block[u.index()];
        if b == NO_BLOCK {
            continue;
        }
        for &w in g.neighbors(u) {
            // Every edge of block `b` once: from its non-top end, or
            // from the smaller end when neither is the top.
            if w.0 == s.top[b as usize] || (s.block[w.index()] == b && u < w) {
                components[b as usize - 1].push((u, w));
            }
        }
    }
    Biconnected {
        components,
        articulation_points,
    }
}

/// The block pass of an elimination sweep: one DFS over `alive` from the
/// first terminal, then each other terminal climbs the tree of blocks,
/// marking the blocks between terminals and counting their ports. The
/// result lives in the workspace until the next pass and is read by
/// [`remove_if_redundant_in`].
///
/// Returns `false` when some terminal is not alive or not reached from
/// the first: then no removal keeps the terminals connected, and the
/// pass must not be used. An empty terminal set is connected, and every
/// node is then removable. Allocation-free once the workspace has warmed
/// up to the graph size.
pub fn terminal_blocks_in(
    ws: &mut Workspace,
    g: &Graph,
    alive: &NodeSet,
    terminals: &NodeSet,
) -> bool {
    if !terminals.is_subset_of(alive) {
        return false;
    }
    let n = g.node_count();
    ws.blocks.reset(n);
    let Some(root) = terminals.first() else {
        return true;
    };
    let mut calls = ws.take_node_buf();
    let mut verts = std::mem::take(&mut ws.queue);
    ws.clear_visited(n);
    ws.blocks
        .dfs(g, alive, root, &mut ws.visited, &mut calls, &mut verts);
    ws.clear_visited(n);
    ws.queue = verts;
    ws.return_node_buf(calls);
    let blocks = &mut ws.blocks;
    terminals.iter().skip(1).all(|t| {
        let reached = blocks.block[t.index()] != NO_BLOCK;
        blocks.add_port(t);
        reached
    })
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
    let verdict = block_verdict(ws, v);
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
fn block_verdict(ws: &Workspace, v: NodeId) -> BlockVerdict {
    let slot = ws.blocks.block[v.index()];
    if slot & PORT != 0 {
        BlockVerdict::Separating
    } else if slot != NO_BLOCK && ws.blocks.ports[slot as usize] > 0 {
        BlockVerdict::InBlock(slot)
    } else {
        BlockVerdict::Free
    }
}

/// Tests an [`BlockVerdict::InBlock`] candidate that has just been
/// removed from `alive`: a BFS from the block's top that never leaves the
/// block and stops once it has reached every port. Every path between
/// terminals crosses the block from port to port, so the terminals stay
/// connected iff this returns `true`. Also returns the number of nodes
/// visited.
///
/// The visited set is a bitset, so a dense row yields only unvisited
/// alive nodes, a whole word at a time; the search clears its own bits on
/// the way out. The queue is the workspace's.
fn ports_connected_in(ws: &mut Workspace, g: &Graph, alive: &NodeSet, id: u32) -> (bool, usize) {
    let (s, queue) = (&mut ws.blocks, &mut ws.queue);
    let top = NodeId(s.top[id as usize]);
    let want = s.ports[id as usize];
    ws.stats.bfs_runs += 1;
    queue.clear();
    queue.push(top);
    s.seen.insert(top);
    let mut found = 1;
    let mut head = 0;
    while found < want && head < queue.len() {
        let v = queue[head];
        head += 1;
        match g.neighbors_bits(v) {
            Some(row) => {
                for (wi, &r) in row.iter().enumerate() {
                    let mut word = r & alive.words()[wi] & !s.seen.words()[wi];
                    while word != 0 {
                        let u = NodeId::from_index(wi * 64 + word.trailing_zeros() as usize);
                        word &= word - 1;
                        found += s.enter(u, id, queue);
                    }
                }
            }
            None => {
                for &u in g.neighbors(v) {
                    if alive.contains(u) && !s.seen.contains(u) {
                        found += s.enter(u, id, queue);
                    }
                }
            }
        }
    }
    for &u in queue.iter() {
        s.seen.remove(u);
    }
    (found == want, queue.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

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

    /// Runs the block pass and returns every node's verdict.
    fn verdicts(g: &Graph, alive: &NodeSet, terminals: &[u32]) -> Option<Vec<BlockVerdict>> {
        let t = NodeSet::from_nodes(g.node_count(), terminals.iter().map(|&v| NodeId(v)));
        let mut ws = Workspace::new();
        terminal_blocks_in(&mut ws, g, alive, &t)
            .then(|| g.nodes().map(|v| block_verdict(&ws, v)).collect())
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
    }

    #[test]
    fn block_search_stays_inside_its_block() {
        // Square 0-1-2-3 plus a detour 1-4-5-3: one block. Terminals 0
        // and 2.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 3)]);
        let mut alive = NodeSet::full(6);
        let t = NodeSet::from_nodes(6, [NodeId(0), NodeId(2)]);
        let mut ws = Workspace::new();
        assert!(terminal_blocks_in(&mut ws, &g, &alive, &t));
        let BlockVerdict::InBlock(b) = block_verdict(&ws, NodeId(1)) else {
            panic!("node 1 lies in the terminals' block");
        };
        alive.remove(NodeId(1));
        assert!(ports_connected_in(&mut ws, &g, &alive, b).0);
        alive.remove(NodeId(3));
        assert!(!ports_connected_in(&mut ws, &g, &alive, b).0);
        assert_eq!(ws.stats.bfs_runs, 2);
    }

    #[test]
    fn component_nodes_helper() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let b = biconnected_components(&g);
        let nodes = b.component_nodes(0, 3);
        assert_eq!(nodes.len(), 3);
    }
}
