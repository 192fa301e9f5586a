//! # `mcc-hypergraph` — hypergraphs and the acyclicity hierarchy
//!
//! Section 2 of Ausiello–D'Atri–Moscarini relates chordality classes of
//! bipartite graphs to the classical degrees of hypergraph acyclicity
//! (Berge ⊂ γ ⊂ β ⊂ α). This crate provides:
//!
//! * [`Hypergraph`] — finite hypergraphs in which **duplicate edges are
//!   allowed** (the paper leans on this: Definition 2 associates one
//!   hyperedge per `V2`-node, and distinct `V2`-nodes may have equal
//!   neighborhoods);
//! * the dual hypergraph (Definition 3) and the two correspondences
//!   `H¹_G` / `H²_G` between bipartite graphs and hypergraphs
//!   (Definition 2), together with the inverse incidence-graph encoding;
//! * the primal ("2-section") graph `G(H)` and conformality
//!   (Definition 7), via Gilmore's polynomial criterion plus a brute-force
//!   clique-based cross-check;
//! * the four acyclicity recognizers:
//!   - Berge-acyclicity (incidence forest test),
//!   - γ-acyclicity (β-acyclicity + absence of the special 3-edge
//!     γ-cycle of Definition 6),
//!   - β-acyclicity (nest-point elimination),
//!   - α-acyclicity (the Tarjan–Yannakakis maximum-cardinality-search
//!     join tree, held in tests to the GYO reduction);
//! * definitional (exponential, test-oriented) Berge-/β-/γ-cycle
//!   enumerators that follow Definition 6 literally, used as ground truth;
//! * join trees / running-intersection orderings, which Algorithm 1 of the
//!   paper consumes (Lemma 1).
//!
//! Hypergraph nodes reuse [`mcc_graph::NodeId`]; hyperedges get their own
//! dense [`EdgeId`]. Edge contents are stored as bitsets
//! ([`mcc_graph::NodeSet`]), which makes the subset/intersection tests in
//! the recognizers cheap.

#![forbid(unsafe_code)]
// `clippy::unwrap_used` arrives at warn level from the workspace lint
// table ([lints] in Cargo.toml), promoted to an error in CI; unit
// tests are exempt -- tests should unwrap.

pub mod acyclicity;
pub mod berge;
pub mod builder;
pub mod check;
pub mod conformal;
pub mod dual;
pub mod error;
pub mod gyo;
pub mod hypergraph;
pub mod incidence;
pub mod join_tree;
pub mod primal;
pub mod repair;

pub use acyclicity::{is_alpha_acyclic, is_beta_acyclic, is_gamma_acyclic, AcyclicityDegree};
pub use berge::{find_berge_cycle, find_beta_cycle, find_gamma_cycle, is_berge_acyclic};
pub use builder::HypergraphBuilder;
pub use check::{check_join_tree, CHECK_JOIN_TREE_MAX_EDGES};
pub use conformal::{
    find_conformality_violation, is_conformal, is_conformal_bruteforce,
    side_conformality_violation, Incidence, SideIncidence,
};
pub use dual::{check_dual_node_ordering, dual, dual_node_ordering};
pub use error::HypergraphError;
pub use gyo::{gyo_reduce, GyoOutcome};
pub use hypergraph::{EdgeId, Hypergraph};
pub use incidence::{h1_of_bipartite, h2_of_bipartite, incidence_bipartite, side_hypergraph};
pub use join_tree::{join_tree, JoinTree};
pub use primal::primal_graph;
pub use repair::{repair_to_alpha, suggest_alpha_repair, AlphaRepair};
