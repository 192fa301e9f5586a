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
//! still-alive nodes. The Lemma 1 ordering is obtained exactly as the
//! proof of Theorem 4 prescribes: run the Tarjan–Yannakakis maximum
//! cardinality search on the edges of `H¹_G` (each edge is a `V₂` node)
//! and reverse the resulting running-intersection ordering.
//!
//! ## Block-local elimination
//!
//! Step 2 settles its candidates the way Algorithm 2's Step 1 does (see
//! the proof in [`mod@crate::algorithm2`]): one block pass per solve, then
//! each `V₂` candidate is free, separating, or tested by a BFS confined
//! to its one relevant block. The private neighbours removed with a
//! candidate have no other alive neighbour, so they lie on no simple path
//! between terminals and never change the verdict, unless one of them is
//! a terminal: then the removal fails, as it does when the candidate is a
//! terminal itself. The results are node-identical to the whole-graph
//! test (`tests/elimination_differential.rs`).

use crate::algorithm2::block_pass_in;
use crate::{SolveError, SolveOutcome, SteinerTree};
use mcc_chordality::chordal_bipartite::drop_isolated_v2;
use mcc_graph::{
    component_of_in, remove_if_redundant_in, BipartiteGraph, CancelToken, NodeId, NodeSet, Side,
    Stage, Workspace,
};
use mcc_hypergraph::{h1_of_bipartite, running_intersection_ordering, JoinTree};
use std::borrow::Cow;
use std::fmt;

/// Failure modes of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algorithm1Error {
    /// The terminals do not lie in one connected component.
    Infeasible,
    /// `H¹_G` is not α-acyclic, i.e. the graph is not V₂-chordal and
    /// V₂-conformal — no Lemma 1 ordering exists and the algorithm's
    /// optimality guarantee is void.
    NotAlphaAcyclic,
}

impl fmt::Display for Algorithm1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm1Error::Infeasible => {
                write!(f, "terminals are not connected in the graph")
            }
            Algorithm1Error::NotAlphaAcyclic => write!(
                f,
                "graph is not V2-chordal/V2-conformal (H1 not alpha-acyclic); no Lemma 1 ordering"
            ),
        }
    }
}

impl std::error::Error for Algorithm1Error {}

/// The schema-level artifact behind Algorithm 1's Step 1: the Lemma 1
/// elimination ordering of the (non-isolated) `V₂` nodes, together with
/// the join tree of `H¹` that witnesses it.
///
/// The ordering is a **pure function of the graph** — it does not depend
/// on the terminal set — so long-lived callers (the `mcc` solver's
/// schema artifacts, the `mcc-engine` artifact cache) compute it once
/// per schema and replay it across every query via
/// [`algorithm1_with_ordering_budgeted_in`], skipping the `H¹`
/// construction and join-tree search entirely on the per-query path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lemma1Ordering {
    /// The reversed running-intersection ordering of `V₂` nodes (graph
    /// ids of the *original* bipartite graph).
    pub order: Vec<NodeId>,
    /// The join tree of `H¹` (over the isolated-`V₂`-cleaned graph) the
    /// ordering was derived from — a replayable certificate.
    pub join_tree: JoinTree,
}

/// Computes the Lemma 1 ordering of `bg` (Step 1 of Algorithm 1):
/// build `H¹` of the isolated-`V₂`-cleaned graph, take a
/// running-intersection ordering of its edges, reverse it, and map the
/// edge ids back to `V₂` node ids of `bg`.
///
/// Returns `None` when `H¹` is not α-acyclic — the graph is not
/// V₂-chordal ∧ V₂-conformal, so no Lemma 1 ordering exists and
/// Algorithm 1's optimality guarantee is void.
pub fn lemma1_ordering(bg: &BipartiteGraph) -> Option<Lemma1Ordering> {
    let _span = mcc_obs::span!(Lemma1Order);
    let cleaned = drop_isolated_v2(bg);
    #[expect(
        clippy::expect_used,
        reason = "`h1_of_bipartite` fails only on isolated V2 nodes, just dropped"
    )]
    let (h1, _node_map, edge_map) = h1_of_bipartite(&cleaned).expect("isolated V2 nodes dropped");
    let jt = running_intersection_ordering(&h1)?;
    // Edge ids of H¹ → V2 node ids in `cleaned` → ids in `bg`. The
    // cleaned graph preserves labels and relative order, so rebuild the
    // id translation positionally.
    let cleaned_to_orig = cleaned_id_map(bg, &cleaned);
    let mut order: Vec<NodeId> = jt
        .order
        .iter()
        .map(|e| cleaned_to_orig[edge_map[e.index()].index()])
        .collect();
    order.reverse();
    // Certificate (debug builds only): the reversed RIP ordering must
    // satisfy the two Lemma 1 properties it was constructed to provide.
    debug_assert!(
        check_lemma1_order(bg, &order),
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
pub fn check_lemma1_order(bg: &BipartiteGraph, ordering: &[NodeId]) -> bool {
    let g = bg.graph();
    let n = g.node_count();
    if n > CHECK_LEMMA1_MAX_NODES {
        return true;
    }
    if !mcc_graph::is_connected_within(g, &NodeSet::full(n)) {
        return true;
    }
    verify_lemma1_ordering(bg, ordering)
}

/// Output of Algorithm 1: the pseudo-Steiner tree plus the elimination
/// ordering used (a replayable certificate).
#[derive(Debug, Clone)]
pub struct Algorithm1Output {
    /// A tree over the terminals with the minimum number of `V₂` nodes.
    pub tree: SteinerTree,
    /// Number of `V₂` nodes in the tree — the minimized quantity.
    pub v2_cost: usize,
    /// The Lemma 1 ordering of `V₂` nodes that was eliminated along.
    pub ordering: Vec<NodeId>,
}

/// Runs Algorithm 1 on `bg` with terminal set `terminals` (graph ids).
///
/// Requirements (checked): terminals in one component; `H¹_G` α-acyclic.
/// The Theorem 3 guarantee is that the returned tree is `V₂`-minimum
/// among all trees over the terminals.
///
/// Thin wrapper over [`algorithm1_budgeted_in`] with a transient
/// workspace and a token that never cancels.
pub fn algorithm1(
    bg: &BipartiteGraph,
    terminals: &NodeSet,
) -> Result<Algorithm1Output, Algorithm1Error> {
    match algorithm1_budgeted_in(
        &mut Workspace::new(),
        bg,
        terminals,
        &CancelToken::unbounded(),
    ) {
        Ok(out) => Ok(out),
        Err(SolveError::Disconnected) => Err(Algorithm1Error::Infeasible),
        Err(SolveError::NotAlphaAcyclic) => Err(Algorithm1Error::NotAlphaAcyclic),
        #[expect(
            clippy::panic,
            reason = "unbudgeted wrapper: a token without a deadline never cancels, so residual errors are internal bugs; `algorithm1_budgeted_in` is the production path"
        )]
        Err(e) => panic!("unbudgeted Algorithm 1 failed: {e}"),
    }
}

/// [`algorithm1`] through a workspace and under a [`CancelToken`]: token
/// ticks for the block pass and each elimination candidate (see
/// [`algorithm1_with_ordering_budgeted_in`]), and the unified
/// [`SolveError`] taxonomy. Step 2's elimination loop mutates a single
/// alive mask in place — remove the candidate `V₂` node and its private
/// neighbors, test terminal connectivity through the workspace, re-insert
/// on failure — so its steady state allocates nothing (a tick is a
/// [`std::cell::Cell`] decrement). The Lemma 1 ordering construction
/// (Step 1) still builds `H¹` and its join tree, which are returned
/// certificates rather than scratch.
pub fn algorithm1_budgeted_in(
    ws: &mut Workspace,
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    token: &CancelToken,
) -> SolveOutcome<Algorithm1Output> {
    algorithm1_run(ws, bg, terminals, None, token).map(Pseudo::into_output)
}

/// [`algorithm1_budgeted_in`] with a **precomputed** Lemma 1 ordering
/// (see [`lemma1_ordering`]): runs only Steps 2–3, skipping the `H¹`
/// construction and join-tree search that are a pure function of the
/// schema. The ordering is copied into the output as its certificate;
/// the solver's warm route borrows it instead.
///
/// `ordering` must be a Lemma 1 ordering of `bg` (the caller is trusted;
/// [`verify_lemma1_ordering`] checks the property when in doubt). A wrong
/// ordering costs optimality, not soundness: the result is still a valid
/// connection, just possibly not `V₂`-minimum.
///
/// Token charges: `|V| + |A|` units for the block pass; per candidate
/// its degree (the private-neighbour scan) plus the nodes its
/// block-local test visits, if it needs one.
pub fn algorithm1_with_ordering_budgeted_in(
    ws: &mut Workspace,
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    ordering: &[NodeId],
    token: &CancelToken,
) -> SolveOutcome<Algorithm1Output> {
    algorithm1_run(ws, bg, terminals, Some(ordering), token).map(Pseudo::into_output)
}

/// The solver's warm route: [`algorithm1_with_ordering_budgeted_in`]
/// without the certificate copy. Returns the tree and its `V₂` count.
pub(crate) fn algorithm1_cached_in(
    ws: &mut Workspace,
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    ordering: &[NodeId],
    token: &CancelToken,
) -> SolveOutcome<(SteinerTree, usize)> {
    algorithm1_run(ws, bg, terminals, Some(ordering), token).map(|p| (p.tree, p.v2_cost))
}

/// Algorithm 1's answer with the ordering it eliminated along, borrowed
/// when the caller supplied it.
struct Pseudo<'o> {
    tree: SteinerTree,
    v2_cost: usize,
    ordering: Cow<'o, [NodeId]>,
}

impl Pseudo<'_> {
    fn into_output(self) -> Algorithm1Output {
        Algorithm1Output {
            tree: self.tree,
            v2_cost: self.v2_cost,
            ordering: self.ordering.into_owned(),
        }
    }
}

/// The shared body: admission, degenerate cases, the block pass, then
/// Step 1 (only when no precomputed ordering was supplied) and the
/// Steps 2–3 elimination.
fn algorithm1_run<'o>(
    ws: &mut Workspace,
    bg: &BipartiteGraph,
    terminals: &NodeSet,
    precomputed: Option<&'o [NodeId]>,
    token: &CancelToken,
) -> SolveOutcome<Pseudo<'o>> {
    let _span = mcc_obs::span!(Algorithm1);
    let g = bg.graph();
    let n = g.node_count();
    assert_eq!(terminals.capacity(), n, "terminal universe mismatch");
    token.checkpoint(Stage::Algorithm1)?;

    let Some(t0) = terminals.first() else {
        return Ok(Pseudo {
            tree: SteinerTree {
                nodes: NodeSet::new(n),
                edges: vec![],
            },
            v2_cost: 0,
            ordering: Cow::Borrowed(&[]),
        });
    };
    if terminals.len() == 1 {
        // Degenerate case the elimination cannot reach: the last relation
        // adjacent to the lone terminal can never be dropped (the terminal
        // would go with it as a private neighbor), yet the singleton tree
        // is plainly V2-minimum. Return it directly.
        return Ok(Pseudo {
            tree: SteinerTree {
                nodes: terminals.clone(),
                edges: vec![],
            },
            v2_cost: usize::from(bg.side(t0) == Side::V2),
            ordering: Cow::Borrowed(&[]),
        });
    }

    // The block pass over the whole graph doubles as the connectivity
    // check: nodes outside the terminals' component are free.
    let mut alive = ws.take_set_buf(n);
    alive.fill();
    let pass_cost = (n + g.edge_count()) as u64;
    match block_pass_in(
        ws,
        g,
        &alive,
        terminals,
        pass_cost,
        Stage::Algorithm1,
        token,
    ) {
        Ok(true) => {}
        Ok(false) => {
            ws.return_set_buf(alive);
            return Err(SolveError::Disconnected);
        }
        Err(e) => {
            ws.return_set_buf(alive);
            return Err(e.into());
        }
    }

    // Step 1: Lemma 1 ordering — precomputed (warm cache) or derived
    // here from H¹'s join tree (see `lemma1_ordering`).
    let ordering: Cow<'o, [NodeId]> = match precomputed {
        Some(order) => Cow::Borrowed(order),
        // The cold-path fallback: Step 1 derives the ordering (building
        // H¹ and its join tree) only when the schema has no cached
        // artifacts; warm solves take the arm above.
        None => match lemma1_ordering(bg) {
            Some(l1) => Cow::Owned(l1.order),
            None => {
                ws.return_set_buf(alive);
                return Err(SolveError::NotAlphaAcyclic);
            }
        },
    };

    // Step 1 (H¹ + join tree) can itself be sizeable: settle up with the
    // clock before entering the elimination loop.
    if let Err(e) = token.checkpoint(Stage::Algorithm1) {
        ws.return_set_buf(alive);
        return Err(e.into());
    }

    // Step 2: elimination on one alive mask. A removal that takes a
    // terminal (the candidate or one of its private neighbours) always
    // fails.
    let mut private = ws.take_node_buf();
    let mut tripped = None;
    for &v2 in ordering.iter() {
        if !alive.contains(v2) {
            continue; // already private-removed, or eliminated before
        }
        ws.stats.elimination_steps += 1;
        g.private_neighbors_into(v2, &alive, &mut private);
        let takes_terminal =
            terminals.contains(v2) || private.iter().any(|&u| terminals.contains(u));
        let visited = if takes_terminal {
            0
        } else {
            remove_if_redundant_in(ws, g, &mut alive, v2, &private)
        };
        if let Err(e) = token.tick(Stage::Algorithm1, (g.degree(v2) + visited) as u64) {
            tripped = Some(e);
            break;
        }
    }
    ws.return_node_buf(private);
    if let Some(e) = tripped {
        ws.return_set_buf(alive);
        return Err(e.into());
    }
    // Trim to the terminals' component: outside it, the V1 nodes and any
    // V2 node the ordering skips are still alive.
    let mut trimmed = ws.take_set_buf(n);
    component_of_in(ws, g, &alive, t0, &mut trimmed);
    ws.return_set_buf(alive);

    // Step 3: spanning tree.
    let tree = match SteinerTree::from_cover(g, &trimmed) {
        Some(t) => t,
        None => {
            ws.return_set_buf(trimmed);
            return Err(SolveError::Internal {
                stage: Stage::Algorithm1,
                detail: "elimination did not preserve terminal coverage".to_string(),
            });
        }
    };
    // Certificate (debug builds only): valid tree, all terminals
    // connected, nodes drawn from the trimmed alive set.
    debug_assert!(
        n > crate::certify::CHECK_STEINER_MAX_NODES
            || crate::certify::check_steiner_solution(g, &trimmed, terminals, &tree),
        "Algorithm 1 produced a tree failing its own certificate"
    );
    let v2_cost = trimmed.iter().filter(|&v| bg.side(v) == Side::V2).count();
    ws.return_set_buf(trimmed);
    Ok(Pseudo {
        tree,
        v2_cost,
        ordering,
    })
}

/// Verifies the two Lemma 1 properties of a `V₂` ordering
/// `W = ⟨v₁², …, v_q²⟩` on a **connected** bipartite graph, literally:
///
/// 1. for every `i`, the subgraph induced by `V_i^W ∪ Adj(V_i^W)`
///    (the ordering's suffix plus its neighborhood) is connected;
/// 2. for every `i < q` there is a later `v_{j}²` with
///    `Adj(v_i²) ∩ Adj(V_{i+1}^W) ⊆ Adj(v_j²)`.
///
/// Algorithm 1's reversed running-intersection ordering satisfies both —
/// property tests assert it — and Theorem 3's optimality proof consumes
/// exactly these two facts.
pub fn verify_lemma1_ordering(bg: &BipartiteGraph, ordering: &[NodeId]) -> bool {
    let g = bg.graph();
    let n = g.node_count();
    // The ordering must enumerate exactly the non-isolated V2 nodes.
    let expected: Vec<NodeId> = bg
        .side_nodes(Side::V2)
        .filter(|&v| g.degree(v) > 0)
        .collect();
    {
        let mut a = ordering.to_vec();
        a.sort_unstable();
        let mut b = expected.clone();
        b.sort_unstable();
        if a != b {
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

/// Maps node ids of `drop_isolated_v2(bg)` back to ids of `bg`
/// (positional: the cleaned graph keeps all non-dropped nodes in order).
fn cleaned_id_map(bg: &BipartiteGraph, cleaned: &BipartiteGraph) -> Vec<NodeId> {
    let g = bg.graph();
    let kept: Vec<NodeId> = g
        .nodes()
        .filter(|&v| bg.side(v) == Side::V1 || g.degree(v) > 0)
        .collect();
    debug_assert_eq!(kept.len(), cleaned.graph().node_count());
    kept
}

impl PartialEq for Algorithm1Output {
    /// Outputs compare by tree and cost; the ordering is a certificate,
    /// not part of the answer.
    fn eq(&self, other: &Self) -> bool {
        self.tree == other.tree && self.v2_cost == other.v2_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::side_minimum_cover_bruteforce;
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

    #[test]
    fn connects_attributes_with_minimum_relations() {
        let bg = acyclic_schema();
        let terminals = ids(&bg, &["a", "d"]);
        let out = algorithm1(&bg, &terminals).unwrap();
        assert!(out.tree.is_valid_tree(bg.graph()));
        assert!(terminals.is_subset_of(&out.tree.nodes));
        // Optimal: a-r1-b-r3-d uses two relations.
        assert_eq!(out.v2_cost, 2);
        let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &bg.v2_set()).unwrap();
        assert_eq!(bf.intersection(&bg.v2_set()).len(), out.v2_cost);
    }

    #[test]
    fn precomputed_ordering_matches_cold_path() {
        let bg = acyclic_schema();
        let l1 = lemma1_ordering(&bg).expect("alpha-acyclic");
        assert!(verify_lemma1_ordering(&bg, &l1.order));
        assert!(l1.join_tree.order.len() == l1.order.len());
        for labels in [&["a", "d"][..], &["a", "c"], &["b", "d"], &["a", "b", "d"]] {
            let terminals = ids(&bg, labels);
            let mut ws = Workspace::new();
            let cold = algorithm1_budgeted_in(&mut ws, &bg, &terminals, &CancelToken::unbounded())
                .unwrap();
            let warm = algorithm1_with_ordering_budgeted_in(
                &mut ws,
                &bg,
                &terminals,
                &l1.order,
                &CancelToken::unbounded(),
            )
            .unwrap();
            // The cold path derives exactly this ordering, so the answers
            // are identical, not merely equal-cost.
            assert_eq!(cold.ordering, warm.ordering);
            assert_eq!(cold, warm);
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
        assert!(lemma1_ordering(&bg).is_none());
    }

    #[test]
    fn single_terminal_and_empty() {
        let bg = acyclic_schema();
        let out = algorithm1(&bg, &ids(&bg, &["b"])).unwrap();
        assert_eq!(out.tree.node_cost(), 1);
        assert_eq!(out.v2_cost, 0);
        let out = algorithm1(&bg, &NodeSet::new(bg.graph().node_count())).unwrap();
        assert_eq!(out.tree.node_cost(), 0);
    }

    #[test]
    fn terminal_can_be_a_relation_node() {
        let bg = acyclic_schema();
        let terminals = ids(&bg, &["r1", "d"]);
        let out = algorithm1(&bg, &terminals).unwrap();
        assert!(terminals.is_subset_of(&out.tree.nodes));
        let bf = side_minimum_cover_bruteforce(bg.graph(), &terminals, &bg.v2_set()).unwrap();
        assert_eq!(bf.intersection(&bg.v2_set()).len(), out.v2_cost);
    }

    #[test]
    fn produced_ordering_satisfies_lemma1() {
        let bg = acyclic_schema();
        let terminals = ids(&bg, &["a", "d"]);
        let out = algorithm1(&bg, &terminals).unwrap();
        assert!(verify_lemma1_ordering(&bg, &out.ordering));
        // A wrong ordering (reversed) is usually rejected by property (2)
        // or (1); at minimum, permutations that break suffix-connectivity
        // must fail. Here the reversed RIP order (i.e. the prefix order)
        // breaks property (1) for this schema's shape or passes — so use
        // a definitely-broken input: wrong node multiset.
        assert!(!verify_lemma1_ordering(&bg, &out.ordering[1..]));
        let v1_node = bg.graph().node_by_label("a").unwrap();
        let mut bogus = out.ordering.clone();
        bogus[0] = v1_node;
        assert!(!verify_lemma1_ordering(&bg, &bogus));
    }

    #[test]
    fn rejects_non_alpha_acyclic_graphs() {
        // The 6-cycle: H¹ is the triangle hypergraph, not α-acyclic.
        let bg = bipartite_from_lists(
            &["x1", "x2", "x3"],
            &["y1", "y2", "y3"],
            &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        );
        let terminals = ids(&bg, &["x1", "x2"]);
        assert_eq!(
            algorithm1(&bg, &terminals),
            Err(Algorithm1Error::NotAlphaAcyclic)
        );
    }

    #[test]
    fn rejects_disconnected_terminals() {
        let bg = bipartite_from_lists(&["a", "b"], &["r1", "r2"], &[(0, 0), (1, 1)]);
        let terminals = ids(&bg, &["a", "b"]);
        assert_eq!(
            algorithm1(&bg, &terminals),
            Err(Algorithm1Error::Infeasible)
        );
    }

    #[test]
    fn budgeted_deadline_interrupts_the_solve() {
        let bg = acyclic_schema();
        let terminals = ids(&bg, &["a", "d"]);
        let budget = SolveBudget::with_deadline(std::time::Duration::ZERO);
        let token = budget.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut ws = Workspace::new();
        let e = algorithm1_budgeted_in(&mut ws, &bg, &terminals, &token).unwrap_err();
        assert!(e.budget().is_some());
        // The workspace stays usable: an unbounded token still solves.
        let out =
            algorithm1_budgeted_in(&mut ws, &bg, &terminals, &CancelToken::unbounded()).unwrap();
        assert_eq!(out.v2_cost, 2);
    }

    #[test]
    fn isolated_v2_nodes_tolerated() {
        let bg = bipartite_from_lists(&["a", "b"], &["r1", "dead"], &[(0, 0), (1, 0)]);
        let terminals = ids(&bg, &["a", "b"]);
        let out = algorithm1(&bg, &terminals).unwrap();
        assert_eq!(out.v2_cost, 1);
    }
}
