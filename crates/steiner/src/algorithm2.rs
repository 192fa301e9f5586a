//! The paper's **Algorithm 2** (Theorem 5): Steiner trees on
//! (6,2)-chordal bipartite graphs in `O(|V|·|A|)`; this implementation
//! runs Step 1 in `O(|V| + |A| + Σ_B |V_B|·|A_B|)` over the biconnected
//! blocks `B` (see *Block-local elimination* below), which is linear on
//! trees of small blocks such as the (6,2) block trees.
//!
//! ```text
//! Step 1. for every v in V − P̄: if G − v is a cover of P̄ then G := G − v
//! Step 2. return a spanning tree of G
//! ```
//!
//! [`algorithm2()`] takes the scan order, a workspace and a
//! [`CancelToken`], and returns a [`SolveOutcome`]: disconnection and
//! budget trips are errors, never panics.
//!
//! Step 1 produces a *nonredundant* cover; Lemma 5 shows that on
//! (6,2)-chordal graphs **every** nonredundant cover is minimum, so any
//! scan order works (Corollary 5: all orderings are good). Off-class the
//! same procedure is still a useful heuristic — it returns some
//! nonredundant cover — and the `e8_offclass` experiment measures how far
//! from optimal it can drift (Theorem 6 shows it can, already on
//! (6,1)-chordal inputs).
//!
//! ## Interpretation note (elimination test)
//!
//! "`G − v` is a cover of `P̄`" must be read as *the terminals remain
//! mutually connected in `G − v`* rather than as the literal
//! Definition 10 predicate (*the whole remaining subgraph is connected*).
//! Under the literal reading a one-pass sweep can keep redundant nodes:
//! in the bipartite graph `t1–a–t2–v–t1` with a pendant chain `j2–j1–v`
//! (which is (6,2)-chordal — its only cycle is a C4), the scan order
//! `v, j1, j2, a` keeps `{t1, t2, v, j1}` (size 4) against the minimum
//! `{t1, a, t2}`, contradicting Lemma 5's promise. Under the relaxed
//! test a kept node stays necessary forever (components only refine when
//! nodes are deleted), one pass yields a nonredundant cover, and
//! Lemma 5 then makes it minimum — which the property tests verify
//! against the exact solver.
//!
//! ## Block-local elimination
//!
//! The paper tests each candidate with a search of the whole graph. This
//! sweep runs one block pass first ([`terminal_blocks_in`]: a marking of
//! the terminals' blocks in the tree of blocks, which the graph builds
//! once and keeps) and returns exactly the node set the whole-graph sweep
//! returns, for any order, on-class or off-class. The argument, for a
//! sweep that keeps the terminals connected (each step does):
//!
//! - A simple path between two terminals stays inside the blocks on
//!   their path in the tree of blocks: once it leaves a block through a
//!   cut vertex it can come back only through that same vertex. Call
//!   these blocks *relevant*. Which blocks are relevant does not depend
//!   on where the tree is rooted.
//! - The *ports* of a relevant block are its nodes through which terminal
//!   paths enter it: its terminals, and its cut vertices with a terminal
//!   beyond them (outside the block's side of the cut). Ports do not
//!   depend on the root either; the block's top is a port exactly when a
//!   terminal lies beyond it.
//! - A candidate in no relevant block (a *free* node) lies on no such
//!   path, so removing it keeps the terminals connected: it goes with no
//!   search.
//! - A non-terminal port (a *separating* node) has terminals on both
//!   sides, so removing it disconnects them: it stays with no search.
//! - Any other candidate lies in exactly one relevant block `B`. Every
//!   terminal path crosses `B` between two of its ports, so the
//!   terminals stay connected without the candidate iff the ports stay
//!   connected inside `B`: one BFS confined to `B`, started from a port
//!   ([`remove_if_redundant_in`]). The ports never leave the alive set:
//!   terminals are never candidates and separating nodes always stay.
//! - The graph's tree is rooted at a fixed node, not at a terminal, so
//!   the topmost relevant block may contain all terminal paths (the
//!   *apex*). Its top then has no terminal beyond it: it is no port but
//!   an ordinary member of the apex, tested by the apex's search, which
//!   starts from one of the apex's ports instead. The blocks above the
//!   point where the terminal paths meet are not relevant, and the
//!   marking unmarks them.
//! - Both settled verdicts are monotone as the alive set shrinks: a
//!   simple path of the smaller set is one of the larger, so it still
//!   avoids a free node, and a set that a separating node cut still falls
//!   apart without it. So one pass over the whole graph serves every
//!   sweep that starts from an alive set in which the terminals are
//!   connected: the whole graph for Algorithms 1 and 2, KMB's union of
//!   shortest paths for its prune. The ports are alive in any such set,
//!   since each lies on every path between some two terminals.
//!
//! A search costs its block's nodes and their adjacency rows: on a block
//! of at most 64 members it is a flood over the block's own one-word rows
//! (built with the tree of blocks), `O(|V_B|)` word operations; a larger
//! block runs a BFS over the graph's adjacency. The marking costs the
//! terminals' paths to the root, whence the bound above. `tests/elimination_differential.rs` keeps the whole-graph
//! sweep as an oracle and checks node-identical results.

use crate::outcome::check_terminal_universe;
use crate::{SolveError, SolveOutcome, SteinerTree};
use mcc_graph::{
    component_of_in, remove_if_redundant_in, terminal_blocks_in, terminals_connected_in,
    BudgetExceeded, CancelToken, Graph, NodeId, NodeSet, Stage, Workspace,
};

/// Runs Algorithm 2 on `g`, eliminating candidates in `order` (nodes
/// missing from `order` are never eliminated). On a (6,2)-chordal graph
/// every order yields a minimum tree (Theorem 5, Corollary 5), so the
/// solver passes the schema's cached MCS order; the good-ordering
/// experiments (Definition 11, Theorem 6) pass their own.
///
/// Errors: [`SolveError::Disconnected`] when the terminals do not lie in
/// one component, a budget trip of `token`, and
/// [`SolveError::Internal`] when `terminals` is a set over another
/// universe than `g`'s nodes (refused before any work).
///
/// The elimination loop mutates one alive mask in place (remove →
/// connectivity test → re-insert on failure) and every connectivity
/// test runs through the workspace, so after warm-up Step 1 performs
/// **no heap allocation at all** — the `alloc_regression` integration
/// test pins this down. Only the returned [`SteinerTree`] is allocated.
/// A tick per candidate is a [`std::cell::Cell`] decrement, and the
/// clock is consulted only every [`mcc_graph::budget::TICK_PERIOD`] work
/// units.
///
/// ```
/// use mcc_graph::{builder::graph_from_edges, CancelToken, NodeId, NodeSet, Workspace};
/// use mcc_steiner::algorithm2;
///
/// // A square (C4, trivially (6,2)-chordal): connect two opposite
/// // corners; the optimum uses one of the two midpoints.
/// let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let terminals = NodeSet::from_nodes(4, [NodeId(0), NodeId(2)]);
/// let order: Vec<NodeId> = g.nodes().collect();
/// let token = CancelToken::unbounded();
/// let tree = algorithm2(&mut Workspace::new(), &g, &terminals, &order, &token)
///     .expect("connected");
/// assert_eq!(tree.node_cost(), 3); // minimum, per Theorem 5
/// ```
pub fn algorithm2(
    ws: &mut Workspace,
    g: &Graph,
    terminals: &NodeSet,
    order: &[NodeId],
    token: &CancelToken,
) -> SolveOutcome<SteinerTree> {
    let _span = mcc_obs::span!(Algorithm2);
    let n = g.node_count();
    check_terminal_universe(terminals, n, Stage::Algorithm2)?;
    token.checkpoint(Stage::Algorithm2)?;
    // The block pass replaces a search for the terminals' component:
    // nodes outside it are free, and the final trim drops any that the
    // order left alive.
    let mut alive = ws.take_set_buf(n);
    alive.fill();
    prune_and_span_in(ws, g, terminals, order, alive, token)
}

/// Steps 1 and 2 over a caller-given `alive` set in which the terminals
/// are connected, or the whole graph (a pooled set of `ws`, which this
/// returns to the pool): the block pass, the sweep along `order`, then
/// [`span_cover_in`]. Algorithm 2 passes the whole graph; KMB passes its
/// union of shortest paths, which is the same sweep as on the induced
/// subgraph because connectivity within `alive` reads only edges between
/// alive nodes.
pub(crate) fn prune_and_span_in(
    ws: &mut Workspace,
    g: &Graph,
    terminals: &NodeSet,
    order: &[NodeId],
    mut alive: NodeSet,
    token: &CancelToken,
) -> SolveOutcome<SteinerTree> {
    let swept = match block_pass_in(ws, g, terminals, Stage::Algorithm2, token) {
        Ok(true) => sweep_in(ws, g, terminals, order, &mut alive, token).map_err(SolveError::from),
        Ok(false) => Err(SolveError::Disconnected),
        Err(e) => Err(e.into()),
    };
    if let Err(e) = swept {
        ws.return_set_buf(alive);
        return Err(e);
    }
    span_cover_in(ws, g, terminals, alive, Stage::Algorithm2)
}

/// The tail of Algorithms 1 and 2 and KMB's prune after their sweep:
/// spans `alive` (a pooled set of `ws`, which this returns to the pool)
/// on `g` itself, certified in debug builds. When the order covers every
/// candidate of the terminals' component, the survivors are already
/// connected (every kept node separates terminals, hence lies on a
/// terminal path), so one BFS, the span's, is the whole tail: the first
/// terminal's component is then all of `alive`, and the tree is the one
/// the trim below would span. Only when that span fails, because the
/// order skipped nodes outside the terminals' component (a partial
/// order, or isolated nodes Algorithm 1's order never lists), or when
/// there are no terminals, does it trim `alive` to the first terminal's
/// component and span that. An empty terminal set yields the empty tree.
pub(crate) fn span_cover_in(
    ws: &mut Workspace,
    g: &Graph,
    terminals: &NodeSet,
    alive: NodeSet,
    stage: Stage,
) -> SolveOutcome<SteinerTree> {
    let (cover, tree) = match terminals
        .first()
        .and_then(|_| SteinerTree::from_cover(g, &alive))
    {
        Some(tree) => (alive, Some(tree)),
        None => {
            let mut trimmed = ws.take_set_buf(g.node_count());
            if let Some(t0) = terminals.first() {
                component_of_in(ws, g, &alive, t0, &mut trimmed);
            }
            ws.return_set_buf(alive);
            let tree = SteinerTree::from_cover(g, &trimmed);
            (trimmed, tree)
        }
    };
    // Certificate (debug builds only): valid tree, all terminals
    // connected, nodes drawn from the spanned set.
    if let Some(t) = &tree {
        debug_assert!(
            g.node_count() > crate::certify::CHECK_STEINER_MAX_NODES
                || crate::certify::check_steiner_solution(g, &cover, terminals, t),
            "{stage} produced a tree failing its own certificate"
        );
    }
    ws.return_set_buf(cover);
    tree.ok_or_else(|| SolveError::Internal {
        stage,
        detail: "elimination did not preserve terminal coverage".to_string(),
    })
}

/// Algorithm 2's **Step 1** in isolation: shrink `alive` to a
/// nonredundant cover of `terminals` by attempting, in `order`, to delete
/// each non-terminal node, keeping the deletion only when the terminals
/// stay connected.
///
/// The result is node for node that of testing each deletion with a
/// search of the whole graph (the module docs give the proof). One search
/// first checks that the terminals are connected within `alive`: when
/// they are not, no deletion keeps them connected and `alive` is left as
/// it is. Then one block pass over the graph's tree of blocks and
/// block-local searches make the sweep cheap. Everything runs through the
/// workspace and the alive mask is the caller's, so once the workspace
/// has warmed up to this graph size the sweep performs **zero heap
/// allocations**, which `tests/alloc_regression.rs` asserts with a
/// counting global allocator.
pub fn eliminate_nonredundant_in(
    ws: &mut Workspace,
    g: &Graph,
    terminals: &NodeSet,
    order: &[NodeId],
    alive: &mut NodeSet,
) {
    if !terminals_connected_in(ws, g, alive, terminals) {
        return;
    }
    // An unbounded token never cancels; the sweep always completes.
    let token = CancelToken::unbounded();
    if let Ok(true) = block_pass_in(ws, g, terminals, Stage::Algorithm2, &token) {
        let _ = sweep_in(ws, g, terminals, order, alive, &token);
    }
}

/// Runs [`terminal_blocks_in`] and charges the token the work it reports:
/// the elements of the graph's tree of blocks its marking visits (the
/// tree is built once per graph, uncharged). `Ok(false)` means the
/// terminals are not connected.
pub(crate) fn block_pass_in(
    ws: &mut Workspace,
    g: &Graph,
    terminals: &NodeSet,
    stage: Stage,
    token: &CancelToken,
) -> Result<bool, BudgetExceeded> {
    let Some(work) = terminal_blocks_in(ws, g, terminals) else {
        return Ok(false);
    };
    token.tick(stage, work)?;
    Ok(true)
}

/// Step 1 after a successful block pass, on an alive set in which the
/// terminals are connected. A candidate the pass settles costs one token
/// unit, a block-local test the nodes it visits. On a budget trip the sweep stops early and `alive` is left a
/// *valid cover* of the terminals (every step leaves them connected),
/// merely not yet nonredundant.
fn sweep_in(
    ws: &mut Workspace,
    g: &Graph,
    terminals: &NodeSet,
    order: &[NodeId],
    alive: &mut NodeSet,
    token: &CancelToken,
) -> Result<(), BudgetExceeded> {
    for &v in order {
        if terminals.contains(v) || !alive.contains(v) {
            continue;
        }
        ws.stats.elimination_steps += 1;
        let visited = remove_if_redundant_in(ws, g, alive, v, &[]);
        token.tick(Stage::Algorithm2, 1 + visited as u64)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::{is_nonredundant_cover, minimum_cover_bruteforce};
    use mcc_graph::builder::graph_from_edges;
    use mcc_graph::SolveBudget;

    fn terminals(n: usize, ts: &[u32]) -> NodeSet {
        NodeSet::from_nodes(n, ts.iter().map(|&t| NodeId(t)))
    }

    /// Algorithm 2 along `order` with a fresh workspace and no deadline.
    fn along(g: &Graph, p: &NodeSet, order: &[NodeId]) -> SolveOutcome<SteinerTree> {
        let token = CancelToken::unbounded();
        algorithm2(&mut Workspace::new(), g, p, order, &token)
    }

    /// Algorithm 2 in increasing id order.
    fn by_id(g: &Graph, p: &NodeSet) -> SolveOutcome<SteinerTree> {
        along(g, p, &g.nodes().collect::<Vec<_>>())
    }

    #[test]
    fn produces_nonredundant_cover() {
        // C4 plus pendant: a (6,2)-chordal bipartite graph.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]);
        let p = terminals(5, &[1, 3]);
        let t = by_id(&g, &p).unwrap();
        assert!(t.is_valid_tree(&g));
        assert!(p.is_subset_of(&t.nodes));
        assert!(is_nonredundant_cover(&g, &t.nodes, &p));
        // On a (6,2)-chordal graph the result is minimum (Theorem 5).
        let bf = minimum_cover_bruteforce(&g, &p).unwrap();
        assert_eq!(t.node_cost(), bf.len());
    }

    #[test]
    fn respects_custom_order() {
        // Square: eliminating 0 first keeps route through 2, and vice
        // versa; both are minimum here.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let p = terminals(4, &[1, 3]);
        let via2 = along(&g, &p, &[NodeId(0), NodeId(2)]).unwrap();
        assert!(via2.nodes.contains(NodeId(2)) && !via2.nodes.contains(NodeId(0)));
        let via0 = along(&g, &p, &[NodeId(2), NodeId(0)]).unwrap();
        assert!(via0.nodes.contains(NodeId(0)) && !via0.nodes.contains(NodeId(2)));
    }

    #[test]
    fn nodes_missing_from_order_survive() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = terminals(3, &[0]);
        // Only node 1 may be eliminated; 2 stays even though removable.
        let t = along(&g, &p, &[NodeId(1)]).unwrap();
        assert!(t.nodes.contains(NodeId(2)));
        assert_eq!(t.node_cost(), 2);
    }

    #[test]
    fn disconnected_terminals_rejected() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            by_id(&g, &terminals(4, &[0, 2])),
            Err(SolveError::Disconnected)
        );
    }

    #[test]
    fn other_components_are_dropped() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let t = by_id(&g, &terminals(5, &[0, 2])).unwrap();
        assert_eq!(t.node_cost(), 3);
        assert!(!t.nodes.contains(NodeId(3)));
    }

    #[test]
    fn budgeted_reports_disconnection_and_deadline() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let token = SolveBudget::default().start();
        let mut ws = Workspace::new();
        let order: Vec<NodeId> = g.nodes().collect();
        let e = algorithm2(&mut ws, &g, &terminals(4, &[0, 2]), &order, &token).unwrap_err();
        assert_eq!(e, SolveError::Disconnected);

        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]);
        let token = SolveBudget::with_deadline(std::time::Duration::ZERO).start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let order: Vec<NodeId> = g.nodes().collect();
        let e = algorithm2(&mut ws, &g, &terminals(5, &[1, 3]), &order, &token).unwrap_err();
        assert!(e.budget().is_some());
        // The workspace survives a trip: an unbounded token still solves.
        let unbounded = CancelToken::unbounded();
        let t = algorithm2(&mut ws, &g, &terminals(5, &[1, 3]), &order, &unbounded).unwrap();
        assert_eq!(t.node_cost(), 3);
    }

    #[test]
    fn interrupted_elimination_leaves_a_valid_cover() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let p = terminals(6, &[0, 3]);
        let mut ws = Workspace::new();
        let mut alive = NodeSet::full(6);
        let token = SolveBudget::with_deadline(std::time::Duration::ZERO).start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let pass = mcc_graph::terminal_blocks_in(&mut ws, &g, &p).unwrap();
        assert_eq!(
            block_pass_in(&mut ws, &g, &p, Stage::Algorithm2, &token),
            Ok(true)
        );
        // The pass charged the work it reports; burn the rest of the fuel
        // so the very first candidate consults the clock.
        let _ = token.tick(Stage::Algorithm2, mcc_graph::budget::TICK_PERIOD - pass - 1);
        let order: Vec<NodeId> = g.nodes().collect();
        let r = sweep_in(&mut ws, &g, &p, &order, &mut alive, &token);
        assert!(r.is_err());
        // Whatever survived is still a cover: terminals stay connected.
        assert!(mcc_graph::terminals_connected_in(&mut ws, &g, &alive, &p));
    }

    #[test]
    fn empty_and_singleton_terminals() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let t = by_id(&g, &terminals(3, &[])).unwrap();
        assert_eq!(t.node_cost(), 0);
        let t = by_id(&g, &terminals(3, &[1])).unwrap();
        assert_eq!(t.node_cost(), 1);
    }
}
