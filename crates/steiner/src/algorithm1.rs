//! The paper's **Algorithm 1** (Theorem 3): pseudo-Steiner trees w.r.t.
//! `V₂` on V₂-chordal, V₂-conformal bipartite graphs, in `O(|V|·|A|)`
//! (Theorem 4). This implementation runs Step 2 in
//! `O(|V| + |A| + Σ_B |V_B|·|A_B|)` over the biconnected blocks `B`, plus
//! the private-neighbour scans, which is linear on trees of small blocks.
//!
//! ```text
//! Step 1. order the V₂ nodes as W = ⟨v₁², …, v_q²⟩ per Lemma 1;
//! Step 2. G₀ := C (the component containing P̄);
//!         for i := 1 to q do
//!           if G_{i-1} − ({v_i²} ∪ Adj*(v_i²)) is a cover of P̄
//!           then G_i := G_{i-1} − ({v_i²} ∪ Adj*(v_i²))
//!           else G_i := G_{i-1};
//! Step 3. return a spanning tree of G_q.
//! ```
//!
//! `Adj*(v)` is the set of nodes adjacent **only** to `v` among the
//! still-alive nodes. [`lemma1_ordering`] is Step 1, exactly as the
//! proof of Theorem 4 prescribes: run the Tarjan–Yannakakis maximum
//! cardinality search on the edges of `H¹_G` (each edge is a `V₂` node)
//! and reverse the resulting running-intersection ordering.
//!
//! ## The ordering is an argument
//!
//! A Lemma 1 ordering exists exactly when the minimized side's
//! hypergraph is α-acyclic (Theorems 3–4), so it doubles as the
//! certificate that Algorithm 1 applies. [`algorithm1()`] runs Steps 2–3
//! and takes that ordering as a required argument; "not α-acyclic" is
//! [`lemma1_ordering`] returning `None`. The ordering depends only on
//! the schema and the side, so the solver's schema artifacts compute it
//! once and every query replays it.
//!
//! ## Either side
//!
//! Both functions take the side they minimize. By duality (the
//! paper's "replace `V₁` with `V₂`" remark, which is how Corollary 4
//! gets pseudo-Steiner w.r.t. `V₁` on (6,1)-chordal graphs), minimizing
//! `V₁` is the algorithm above with the roles of the sides exchanged:
//! Step 1 orders the `V₁` nodes along a join tree of `H²_G`, whose edges
//! are the `V₁` nodes. Step 2 never reads the sides, so no side-swapped
//! copy of the graph is built; only Step 1's hypergraph and the cost
//! count depend on the side. The answers are node-identical to running
//! the `V₂` algorithm on `bg.swap_sides()`
//! (`tests/elimination_differential.rs`).
//!
//! ## Block-local elimination
//!
//! Step 2 settles its candidates the way Algorithm 2's Step 1 does (see
//! the proof in [`mod@crate::algorithm2`]): one block pass per solve,
//! which marks the terminals' blocks in the tree of blocks the graph
//! built on its first solve, then each candidate is free, separating, or
//! tested by a BFS confined to its one relevant block. The private
//! neighbours removed with a candidate have no other alive neighbour, so
//! they lie on no simple path between terminals and never change the
//! verdict, unless one of them is a terminal: then the removal fails, as
//! it does when the candidate is a terminal itself. The results are
//! node-identical to the whole-graph test
//! (`tests/elimination_differential.rs`).

use crate::algorithm2::{block_pass_in, span_cover_in};
use crate::outcome::check_terminal_universe;
use crate::{SolveError, SolveOutcome, SteinerTree};
use mcc_graph::{
    remove_if_redundant_in, BipartiteGraph, CancelToken, NodeId, NodeSet, Side, Stage, Workspace,
};
use mcc_hypergraph::{join_tree, side_hypergraph, JoinTree};

/// The schema-level artifact behind Algorithm 1's Step 1: the Lemma 1
/// elimination ordering of the minimized side's non-isolated nodes,
/// together with the join tree that witnesses it.
///
/// The ordering is a **pure function of the graph and the side** — it
/// does not depend on the terminal set — so long-lived callers (the
/// `mcc` solver's schema artifacts, the `mcc-engine` artifact cache)
/// compute it once per schema and side and replay it across every query
/// via [`algorithm1()`], skipping the hypergraph construction
/// and join-tree search entirely on the per-query path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lemma1Ordering {
    /// The reversed running-intersection ordering of the side's nodes
    /// (graph ids of the bipartite graph).
    pub order: Vec<NodeId>,
    /// The join tree of the side's hypergraph (see [`lemma1_ordering`])
    /// the ordering was derived from — a replayable certificate.
    pub join_tree: JoinTree,
}

/// Computes the Lemma 1 ordering of the `side` nodes of `bg` (Step 1 of
/// Algorithm 1): build the hypergraph whose edges are the non-isolated
/// `side` nodes ([`side_hypergraph`]: `H¹` for `V₂`, `H²` for `V₁`),
/// take a running-intersection ordering of its edges, reverse it, and
/// map the edge ids back to node ids of `bg`.
///
/// Returns `None` when that hypergraph is not α-acyclic — the graph is
/// not Vᵢ-chordal ∧ Vᵢ-conformal for the side, so no Lemma 1 ordering
/// exists and Algorithm 1's optimality guarantee is void.
pub fn lemma1_ordering(bg: &BipartiteGraph, side: Side) -> Option<Lemma1Ordering> {
    let _span = mcc_obs::span!(Lemma1Order);
    let (h, _node_map, edge_map) = side_hypergraph(bg, side);
    let jt = join_tree(&h)?;
    let mut order: Vec<NodeId> = jt.order.iter().map(|e| edge_map[e.index()]).collect();
    order.reverse();
    // Certificate (debug builds only): the reversed RIP ordering must
    // satisfy the two Lemma 1 properties it was constructed to provide.
    debug_assert!(
        check_lemma1_order(bg, &order, side),
        "reversed running-intersection ordering fails the Lemma 1 certificate"
    );
    Some(Lemma1Ordering {
        order,
        join_tree: jt,
    })
}

/// Largest graph the debug-build Lemma 1 certificate runs on;
/// [`check_lemma1_order`] skips (returns `true`) above this — the
/// literal verification is `O(q·(|V| + |A|))` with allocations and
/// exists for debug cross-validation, not production-scale inputs.
pub const CHECK_LEMMA1_MAX_NODES: usize = 256;

/// Debug-build certificate for [`lemma1_ordering`]: runs
/// [`verify_lemma1_ordering`] behind the [`CHECK_LEMMA1_MAX_NODES`] size
/// cap, and skips disconnected graphs (the Lemma 1 properties are stated
/// for connected bipartite graphs; `lemma1_ordering` itself is happy to
/// order a disconnected graph's components jointly, which Algorithm 1
/// then restricts to the terminals' component).
pub fn check_lemma1_order(bg: &BipartiteGraph, ordering: &[NodeId], side: Side) -> bool {
    let g = bg.graph();
    let n = g.node_count();
    if n > CHECK_LEMMA1_MAX_NODES {
        return true;
    }
    if !mcc_graph::is_connected_within(g, &NodeSet::full(n)) {
        return true;
    }
    verify_lemma1_ordering(bg, ordering, side)
}

/// Runs Algorithm 1 (Steps 2–3) on `bg` with terminal set `terminals`
/// (graph ids), minimizing the number of `side` nodes, along `order`:
/// the Lemma 1 ordering of the `side` nodes that [`lemma1_ordering`]
/// builds (Step 1).
///
/// The ordering exists exactly when the side's hypergraph is α-acyclic
/// (`H¹_G` for `V₂`, `H²_G` for `V₁`), and then the Theorem 3 guarantee
/// holds: the returned tree is side-minimum among all trees over the
/// terminals. Its side cost is [`crate::tree_side_cost`]. The caller is
/// trusted ([`verify_lemma1_ordering`] checks the property when in
/// doubt); a wrong ordering costs optimality, not soundness: the result
/// is still a valid connection, just possibly not side-minimum.
///
/// Errors: [`SolveError::Disconnected`] when the terminals do not lie in
/// one component, a budget trip of `token`, and
/// [`SolveError::Internal`] when `terminals` is a set over another
/// universe than `bg`'s nodes (refused before any work).
///
/// The elimination loop mutates a single alive mask in place — remove
/// the candidate and its private neighbors, test terminal connectivity
/// through the workspace, re-insert on failure — so a warm solve
/// allocates only its result (a tick is a [`std::cell::Cell`]
/// decrement).
///
/// Token charges: for the block pass, the elements of the graph's tree
/// of blocks its marking visits (the terminals' paths to the root; the
/// tree itself is built once per graph, uncharged); per candidate its
/// degree (the private-neighbour scan) plus the nodes its block-local
/// test visits, if it needs one.
pub fn algorithm1(
    ws: &mut Workspace,
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    side: Side,
    order: &[NodeId],
    token: &CancelToken,
) -> SolveOutcome<SteinerTree> {
    let _span = mcc_obs::span!(Algorithm1);
    let g = bg.graph();
    let n = g.node_count();
    check_terminal_universe(terminals, n, Stage::Algorithm1)?;
    debug_assert!(
        order.iter().all(|&v| bg.side(v) == side),
        "the ordering lists a node off the minimized side"
    );
    token.checkpoint(Stage::Algorithm1)?;

    if terminals.len() <= 1 {
        // Degenerate case the elimination cannot reach: the last
        // candidate adjacent to a lone terminal can never be dropped (the
        // terminal would go with it as a private neighbor), yet the
        // singleton tree is plainly side-minimum. Return it directly.
        return Ok(SteinerTree {
            nodes: terminals.clone(),
            edges: vec![],
        });
    }

    // The block pass over the whole graph's tree doubles as the
    // connectivity check: nodes outside the terminals' component are
    // free.
    match block_pass_in(ws, g, terminals, Stage::Algorithm1, token) {
        Ok(true) => {}
        Ok(false) => return Err(SolveError::Disconnected),
        Err(e) => return Err(e.into()),
    }
    let mut alive = ws.take_set_buf(n);
    alive.fill();

    // Step 2: elimination on one alive mask. A removal that takes a
    // terminal (the candidate or one of its private neighbours) always
    // fails.
    let mut private = ws.take_node_buf();
    let mut tripped = None;
    for &v in order {
        if !alive.contains(v) {
            continue; // already private-removed, or eliminated before
        }
        ws.stats.elimination_steps += 1;
        g.private_neighbors_into(v, &alive, &mut private);
        let takes_terminal =
            terminals.contains(v) || private.iter().any(|&u| terminals.contains(u));
        let visited = if takes_terminal {
            0
        } else {
            remove_if_redundant_in(ws, g, &mut alive, v, &private)
        };
        if let Err(e) = token.tick(Stage::Algorithm1, (g.degree(v) + visited) as u64) {
            tripped = Some(e);
            break;
        }
    }
    ws.return_node_buf(private);
    if let Some(e) = tripped {
        ws.return_set_buf(alive);
        return Err(e.into());
    }
    // Step 3: outside the terminals' component, the other side's nodes
    // and any candidate the ordering skips are still alive; trim, span.
    span_cover_in(ws, g, terminals, alive, Stage::Algorithm1)
}

/// Verifies the two Lemma 1 properties of an ordering
/// `W = ⟨v₁, …, v_q⟩` of the `side` nodes of a **connected** bipartite
/// graph, literally:
///
/// 1. for every `i`, the subgraph induced by `V_i^W ∪ Adj(V_i^W)`
///    (the ordering's suffix plus its neighborhood) is connected;
/// 2. for every `i < q` there is a later `v_j` with
///    `Adj(v_i) ∩ Adj(V_{i+1}^W) ⊆ Adj(v_j)`.
///
/// Algorithm 1's reversed running-intersection ordering satisfies both —
/// property tests assert it — and Theorem 3's optimality proof consumes
/// exactly these two facts.
pub fn verify_lemma1_ordering(bg: &BipartiteGraph, ordering: &[NodeId], side: Side) -> bool {
    let g = bg.graph();
    let n = g.node_count();
    // The ordering must enumerate exactly the non-isolated side nodes.
    let expected: Vec<NodeId> = bg.side_nodes(side).filter(|&v| g.degree(v) > 0).collect();
    {
        let mut a = ordering.to_vec();
        a.sort_unstable();
        if a != expected {
            return false;
        }
    }
    let q = ordering.len();
    // One adjacency scratch set reused across iterations; each
    // `adjacent_to_set_into` call fills it word-parallel from the graph's
    // dense bitset rows where available.
    let mut adj = NodeSet::new(n);
    for i in 0..q {
        // Suffix V_i^W and its closed neighborhood.
        let suffix = NodeSet::from_nodes(n, ordering[i..].iter().copied());
        let mut closed = suffix.clone();
        g.adjacent_to_set_into(&suffix, &mut adj);
        closed.union_with(&adj);
        if !mcc_graph::is_connected_within(g, &closed) {
            return false;
        }
        // Property (2): Adj(v_i) ∩ Adj(suffix after i) ⊆ Adj(v_j), j > i.
        if i + 1 < q {
            let tail = NodeSet::from_nodes(n, ordering[i + 1..].iter().copied());
            g.adjacent_to_set_into(&tail, &mut adj);
            let shared =
                NodeSet::from_nodes(n, g.neighbors(ordering[i]).iter().copied()).intersection(&adj);
            if shared.is_empty() {
                continue;
            }
            let witnessed = ordering[i + 1..].iter().any(|&vj| {
                let adj_j = NodeSet::from_nodes(n, g.neighbors(vj).iter().copied());
                shared.is_subset_of(&adj_j)
            });
            if !witnessed {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::side_minimum_cover_bruteforce;
    use crate::{tree_side_cost, SchemaArtifacts};
    use mcc_graph::bipartite::bipartite_from_lists;
    use mcc_graph::SolveBudget;

    /// A small α-acyclic schema: relations r1={a,b}, r2={b,c}, r3={b,c,d}.
    fn acyclic_schema() -> BipartiteGraph {
        bipartite_from_lists(
            &["a", "b", "c", "d"],
            &["r1", "r2", "r3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)],
        )
    }

    fn ids(bg: &BipartiteGraph, labels: &[&str]) -> NodeSet {
        NodeSet::from_nodes(
            bg.graph().node_count(),
            labels
                .iter()
                .map(|l| bg.graph().node_by_label(l).expect("label exists")),
        )
    }

    /// Steps 1–3 with no deadline: the tree and its side cost.
    fn solve(
        bg: &BipartiteGraph,
        terminals: &NodeSet,
        side: Side,
    ) -> SolveOutcome<(SteinerTree, usize)> {
        let l1 = lemma1_ordering(bg, side).expect("alpha-acyclic side");
        let token = CancelToken::unbounded();
        let tree = algorithm1(
            &mut Workspace::new(),
            bg,
            terminals,
            side,
            &l1.order,
            &token,
        )?;
        let cost = tree_side_cost(bg, &tree, side);
        Ok((tree, cost))
    }

    #[test]
    fn connects_attributes_with_minimum_relations() {
        let bg = acyclic_schema();
        let terminals = ids(&bg, &["a", "d"]);
        let (tree, side_cost) = solve(&bg, &terminals, Side::V2).unwrap();
        assert!(tree.is_valid_tree(bg.graph()));
        assert!(terminals.is_subset_of(&tree.nodes));
        // Optimal: a-r1-b-r3-d uses two relations.
        assert_eq!(side_cost, 2);
        let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &bg.v2_set()).unwrap();
        assert_eq!(bf.intersection(&bg.v2_set()).len(), side_cost);
    }

    #[test]
    fn precomputed_ordering_matches_cold_path() {
        let bg = acyclic_schema();
        let l1 = lemma1_ordering(&bg, Side::V2).expect("alpha-acyclic");
        assert!(verify_lemma1_ordering(&bg, &l1.order, Side::V2));
        assert!(l1.join_tree.order.len() == l1.order.len());
        // The schema artifacts cache exactly this ordering, so the
        // solver's route returns what a fresh Step 1 would.
        let artifacts = SchemaArtifacts::build(bg.clone());
        let cached = artifacts.lemma1(Side::V2).expect("alpha-acyclic");
        assert_eq!(cached, &l1);
        for labels in [&["a", "d"][..], &["a", "c"], &["b", "d"], &["a", "b", "d"]] {
            let terminals = ids(&bg, labels);
            let mut ws = Workspace::new();
            let token = CancelToken::unbounded();
            let warm =
                algorithm1(&mut ws, &bg, &terminals, Side::V2, &cached.order, &token).unwrap();
            assert_eq!(Ok(warm), solve(&bg, &terminals, Side::V2).map(|(t, _)| t));
        }
    }

    #[test]
    fn lemma1_ordering_rejects_off_class_graphs() {
        // Chordless C6: not V2-conformal, H¹ not α-acyclic.
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        assert!(lemma1_ordering(&bg, Side::V2).is_none());
        assert!(lemma1_ordering(&bg, Side::V1).is_none());
    }

    #[test]
    fn single_terminal_and_empty() {
        let bg = acyclic_schema();
        let (tree, side_cost) = solve(&bg, &ids(&bg, &["b"]), Side::V2).unwrap();
        assert_eq!(tree.node_cost(), 1);
        assert_eq!(side_cost, 0);
        let (_, side_cost) = solve(&bg, &ids(&bg, &["b"]), Side::V1).unwrap();
        assert_eq!(side_cost, 1);
        let empty = NodeSet::new(bg.graph().node_count());
        let (tree, _) = solve(&bg, &empty, Side::V2).unwrap();
        assert_eq!(tree.node_cost(), 0);
    }

    #[test]
    fn terminal_can_be_a_relation_node() {
        let bg = acyclic_schema();
        let terminals = ids(&bg, &["r1", "d"]);
        let (tree, side_cost) = solve(&bg, &terminals, Side::V2).unwrap();
        assert!(terminals.is_subset_of(&tree.nodes));
        let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &bg.v2_set()).unwrap();
        assert_eq!(bf.intersection(&bg.v2_set()).len(), side_cost);
    }

    #[test]
    fn produced_ordering_satisfies_lemma1() {
        let bg = acyclic_schema();
        let ordering = lemma1_ordering(&bg, Side::V2).unwrap().order;
        assert!(verify_lemma1_ordering(&bg, &ordering, Side::V2));
        // A wrong ordering (reversed) is usually rejected by property (2)
        // or (1); at minimum, permutations that break suffix-connectivity
        // must fail. Here the reversed RIP order (i.e. the prefix order)
        // breaks property (1) for this schema's shape or passes — so use
        // a definitely-broken input: wrong node multiset.
        assert!(!verify_lemma1_ordering(&bg, &ordering[1..], Side::V2));
        let v1_node = bg.graph().node_by_label("a").unwrap();
        let mut bogus = ordering.clone();
        bogus[0] = v1_node;
        assert!(!verify_lemma1_ordering(&bg, &bogus, Side::V2));
        // The V2 ordering is no ordering of the V1 side.
        assert!(!verify_lemma1_ordering(&bg, &ordering, Side::V1));
    }

    #[test]
    fn rejects_disconnected_terminals() {
        let bg = bipartite_from_lists(&["a", "b"], &["r1", "r2"], &[(0, 0), (1, 1)]);
        let terminals = ids(&bg, &["a", "b"]);
        assert_eq!(
            solve(&bg, &terminals, Side::V2),
            Err(SolveError::Disconnected)
        );
    }

    #[test]
    fn budgeted_deadline_interrupts_the_solve() {
        let bg = acyclic_schema();
        let terminals = ids(&bg, &["a", "d"]);
        let order = lemma1_ordering(&bg, Side::V2).unwrap().order;
        let budget = SolveBudget::with_deadline(std::time::Duration::ZERO);
        let token = budget.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut ws = Workspace::new();
        let e = algorithm1(&mut ws, &bg, &terminals, Side::V2, &order, &token).unwrap_err();
        assert!(e.budget().is_some());
        // The workspace stays usable: an unbounded token still solves.
        let unbounded = CancelToken::unbounded();
        let tree = algorithm1(&mut ws, &bg, &terminals, Side::V2, &order, &unbounded).unwrap();
        assert_eq!(tree_side_cost(&bg, &tree, Side::V2), 2);
    }

    #[test]
    fn isolated_v2_nodes_tolerated() {
        let bg = bipartite_from_lists(&["a", "b"], &["r1", "dead"], &[(0, 0), (1, 0)]);
        let terminals = ids(&bg, &["a", "b"]);
        let (_, side_cost) = solve(&bg, &terminals, Side::V2).unwrap();
        assert_eq!(side_cost, 1);
    }

    /// A chordal bipartite ((6,1)) graph — C6 with one chord — for which
    /// Corollary 4 promises polynomial pseudo-Steiner on both sides.
    fn six_one_graph() -> BipartiteGraph {
        bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (1, 2)],
        )
    }

    #[test]
    fn both_sides_solvable_on_six_one_graphs() {
        let bg = six_one_graph();
        let terminals = ids(&bg, &["x1", "x3"]);
        for side in [Side::V1, Side::V2] {
            let (tree, side_cost) = solve(&bg, &terminals, side).expect("Corollary 4 applies");
            assert!(tree.is_valid_tree(bg.graph()));
            assert!(terminals.is_subset_of(&tree.nodes));
            let side_set = match side {
                Side::V1 => bg.v1_set(),
                Side::V2 => bg.v2_set(),
            };
            let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &side_set).unwrap();
            assert_eq!(side_cost, bf.intersection(&side_set).len(), "side={side:?}");
        }
    }

    #[test]
    fn side_cost_counts_the_right_side() {
        let bg = six_one_graph();
        let terminals = ids(&bg, &["x1", "x2"]);
        let (_, side_cost) = solve(&bg, &terminals, Side::V2).unwrap();
        // x1 and x2 connect through one relation node (y1).
        assert_eq!(side_cost, 1);
        let (_, side_cost) = solve(&bg, &terminals, Side::V1).unwrap();
        // Tree x1-y1-x2 has two V1 nodes (the terminals themselves).
        assert_eq!(side_cost, 2);
    }

    #[test]
    fn pseudo_minimum_need_not_be_steiner_minimum() {
        // The paper's remark after Corollary 4: Algorithm 1 cannot be
        // used for the full Steiner problem — a V2-minimum cover can
        // carry redundant V1 passengers. Here {A, B, C, s} is V2-minimum
        // (one relation) yet bigger than the Steiner optimum {A, r, B}.
        let bg = bipartite_from_lists(
            &["A", "B", "C"],
            &["r", "s"],
            &[(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)],
        );
        let g = bg.graph();
        let terminals = ids(&bg, &["A", "B"]);

        // The bloated V2-minimum cover.
        let bloated = ids(&bg, &["A", "B", "C", "s"]);
        assert!(mcc_graph::is_cover(g, &bloated, &terminals));
        assert_eq!(bloated.intersection(&bg.v2_set()).len(), 1);
        // It matches the V2 optimum…
        let v2_min = side_minimum_cover_bruteforce(g, &terminals, &bg.v2_set()).unwrap();
        assert_eq!(v2_min.intersection(&bg.v2_set()).len(), 1);
        // …but not the node optimum.
        let node_min = crate::minimum_cover_bruteforce(g, &terminals).unwrap();
        assert_eq!(node_min.len(), 3);
        assert!(bloated.len() > node_min.len());

        // Algorithm 1 still delivers a V2-minimum tree (its actual
        // contract); node count is allowed to exceed the Steiner optimum.
        let (tree, side_cost) = solve(&bg, &terminals, Side::V2).unwrap();
        assert_eq!(side_cost, 1);
        assert!(tree.node_cost() >= node_min.len());
    }
}
