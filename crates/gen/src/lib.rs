//! # `mcc-gen` — seeded workload generators
//!
//! Deterministic (seed-driven) generators for every instance family the
//! experiments need:
//!
//! * [`bipartite`] — Erdős–Rényi bipartite graphs (the NP-hard wilderness)
//!   and random trees ((4,1)-chordal);
//! * [`join_tree`] — random α-acyclic hypergraphs by join-tree
//!   construction, yielding V₂-chordal, V₂-conformal bipartite instances
//!   for Algorithm 1 (experiment E4);
//! * [`block_tree`] — trees of complete-bipartite blocks glued at single
//!   nodes: (6,2)-chordal instances for Algorithm 2 (experiment E5);
//! * [`interval`] — random interval hypergraphs: β-acyclic, i.e.
//!   (6,1)-chordal incidence graphs (experiment E6 / Corollary 4);
//! * [`x3c`] — X3C instances with or without planted exact covers
//!   (experiment E3 / Theorem 2).
//!
//! Every generator's class claim is asserted by the recognizers in this
//! crate's tests, so benchmark workloads cannot silently drift off-class.

#![forbid(unsafe_code)]
// `clippy::unwrap_used` arrives at warn level from the workspace lint
// table ([lints] in Cargo.toml), promoted to an error in CI; unit
// tests are exempt -- tests should unwrap.

pub mod bipartite;
pub mod block_tree;
pub mod interval;
pub mod join_tree;
pub mod perturb;
pub mod terminals;
pub mod x3c;

pub use bipartite::{random_bipartite, random_tree_bipartite};
pub use block_tree::random_six_two_block_tree;
pub use interval::random_interval_hypergraph;
pub use join_tree::random_alpha_acyclic;
pub use perturb::{add_random_edge, remove_random_edge};
pub use terminals::random_terminals;
pub use x3c::{random_x3c, random_x3c_planted};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workspace-standard way to get a deterministic RNG from a seed.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
