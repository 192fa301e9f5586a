//! # `mcc-steiner` — minimal connections (Section 3 of the paper)
//!
//! The paper's driving problem: given a graph `G` and a set `P̄` of nodes
//! (a query over object names), find a tree over `P̄` with the minimum
//! number of nodes — the (unweighted, node-count) **Steiner problem**
//! (Definition 8) — or with the minimum number of nodes from one side of a
//! bipartition — the **pseudo-Steiner problem** (Definition 9).
//!
//! Contents:
//!
//! * [`cover`] — Definition 10: covers, nonredundant covers, minimum and
//!   `Vᵢ`-minimum covers, nonredundant/minimum paths (with exhaustive
//!   baselines for small instances);
//! * [`instance`] — problem/solution types with validity checking;
//! * [`exact`] — a Dreyfus–Wagner dynamic program over **node weights**
//!   (unit weights give the Steiner problem; `V₂`-indicator weights give
//!   pseudo-Steiner ground truth). Exponential in `|P̄|`, the baseline
//!   that the NP-hardness experiments push until it blows up;
//! * [`algorithm1`](mod@algorithm1) — the paper's **Algorithm 1** (Theorem 3/4):
//!   pseudo-Steiner w.r.t. either side on Vᵢ-chordal, Vᵢ-conformal
//!   graphs in `O(|V|·|A|)`, driven by the reversed Tarjan–Yannakakis
//!   ordering of the side's hypergraph edges (Lemma 1; `V₁` by
//!   Corollary 4's duality);
//! * [`algorithm2`](mod@algorithm2) — the paper's **Algorithm 2** (Theorem 5): the full
//!   Steiner problem on (6,2)-chordal graphs by arbitrary-order node
//!   elimination (Lemmas 4/5 make every nonredundant cover minimum);
//! * [`heuristic`] — a KMB-style shortest-path/MST 2-approximation used
//!   as the off-class baseline;
//! * [`outcome`] — the unified [`SolveError`]/[`SolveOutcome`] taxonomy
//!   that every route returns, and the [`Degraded`] downgrade record;
//! * [`ordering`] — good orderings (Definition 11), the machinery behind
//!   Corollary 5 and the Theorem 6 counterexample;
//! * [`artifacts`] — the per-schema bundle (classification, elimination
//!   order, Lemma 1 routes built on first use) shared across solvers;
//! * [`solver`] — the one routing ladder: [`Solver`] picks the strongest
//!   algorithm the schema's class licenses, under a budget, with the
//!   Exact → KMB degradation ladder and a panic boundary.
//!
//! Algorithm 1, Algorithm 2 and KMB each have one public function, the
//! form [`Solver`] calls: [`algorithm1`](fn@algorithm1),
//! [`algorithm2`](fn@algorithm2) and [`steiner_kmb`]. Each takes a
//! [`CancelToken`](mcc_graph::CancelToken) and returns a
//! [`SolveOutcome`], so disconnection, a budget trip and a terminal set
//! over the wrong universe are typed errors, never panics. Algorithm 1
//! takes its Lemma 1 ordering ([`lemma1_ordering`]) as an argument: the
//! ordering exists exactly when its precondition holds.

#![forbid(unsafe_code)]

pub mod algorithm1;
pub mod algorithm2;
pub mod artifacts;
pub mod certify;
pub mod cover;
pub mod exact;
pub mod exact_ids;
pub mod heuristic;
pub mod instance;
pub mod ordering;
pub mod outcome;
pub mod solver;

pub use algorithm1::{
    algorithm1, check_lemma1_order, lemma1_ordering, verify_lemma1_ordering, Lemma1Ordering,
    CHECK_LEMMA1_MAX_NODES,
};
pub use algorithm2::{algorithm2, eliminate_nonredundant_in};
pub use artifacts::{ArtifactsError, SchemaArtifacts};
pub use certify::{
    check_steiner_solution, is_steiner_tree_for, tree_side_cost, CHECK_STEINER_MAX_NODES,
};
pub use cover::{
    is_minimum_path, is_nonredundant_cover, is_nonredundant_path, minimum_cover_bruteforce,
    side_minimum_cover_bruteforce,
};
pub use exact::{
    steiner_exact, steiner_exact_node_weighted, steiner_exact_node_weighted_budgeted, ExactSolution,
};
pub use exact_ids::steiner_exact_ids;
pub use heuristic::steiner_kmb;
pub use instance::{SteinerInstance, SteinerTree};
pub use ordering::{is_good_ordering_for, ordering_landscape};
pub use outcome::{Degraded, SolveError, SolveOutcome};
pub use solver::{Solution, SolveStats, Solver, SolverConfig, SteinerStrategy};
