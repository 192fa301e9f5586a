//! # `mcc` — Minimal Conceptual Connections
//!
//! A production-quality Rust reproduction of
//!
//! > G. Ausiello, A. D'Atri, M. Moscarini,
//! > *Chordality Properties on Graphs and Minimal Conceptual Connections
//! > in Semantic Data Models*, PODS 1985 / JCSS 33(2):179–202, 1986.
//!
//! The paper relates **chordality classes of bipartite graphs** to the
//! classical **hypergraph acyclicity hierarchy** (Berge ⊂ γ ⊂ β ⊂ α,
//! Theorem 1), and maps out where the **Steiner** ("minimal conceptual
//! connection") and **pseudo-Steiner** problems become tractable:
//!
//! | class | Steiner | pseudo-Steiner (V₂) |
//! |---|---|---|
//! | (6,2)-chordal (γ-acyclic) | **poly — Algorithm 2** (Thm 5) | poly |
//! | V₂-chordal ∧ V₂-conformal (α-acyclic) | NP-complete (Thm 2) | **poly — Algorithm 1** (Thms 3–4) |
//! | general bipartite | NP-complete | NP-complete |
//!
//! This crate is the facade: it re-exports the whole workspace (including
//! the auto-dispatching [`Solver`] from `mcc-steiner`) and reconstructs
//! every figure of the paper in [`figures`].
//!
//! ```
//! use mcc::figures;
//! use mcc::prelude::*;
//!
//! let fig3 = figures::fig3();
//! assert!(classify_bipartite(&fig3.b).six_two);
//! ```
//!
//! ## Crate map
//!
//! * [`graph`] / [`hypergraph`] — the substrates (graphs, bipartite
//!   graphs, hypergraphs, duals, acyclicity recognizers);
//! * [`chordality`] — all recognizers of Definitions 4–5;
//! * [`steiner`] — exact solvers, Algorithms 1 and 2, heuristics, good
//!   orderings, the per-schema [`artifacts`] and the one routing
//!   ladder, [`solver`];
//! * [`reductions`] — the Theorem 2 (X3C) and Fig. 9 (CSPC) gadgets;
//! * [`gen`] — seeded workload generators for every class;
//! * [`datamodel`] — ER/relational schemas and the query interface;
//! * [`figures`] — the paper's figures as ready-made instances.

#![forbid(unsafe_code)]
// `clippy::unwrap_used` arrives at warn level from the workspace lint
// table ([lints] in Cargo.toml), promoted to an error in CI; unit
// tests are exempt -- tests should unwrap.

pub use mcc_chordality as chordality;
pub use mcc_datamodel as datamodel;
pub use mcc_gen as gen;
pub use mcc_graph as graph;
pub use mcc_hypergraph as hypergraph;
pub use mcc_obs as obs;
pub use mcc_reductions as reductions;
pub use mcc_steiner as steiner;

/// Reconstructions of the paper's running figures (Figs. 2-11).
pub mod figures;

pub use mcc_steiner::{artifacts, solver};

pub use artifacts::{ArtifactsError, SchemaArtifacts};
pub use mcc_graph::{BudgetExceeded, BudgetKind, SolveBudget, Stage};
pub use solver::{
    Degraded, Solution, SolveError, SolveOutcome, SolveStats, Solver, SolverConfig, SteinerStrategy,
};

/// The most common imports in one place.
pub mod prelude {
    pub use mcc_chordality::{classify_bipartite, BipartiteClassification};
    pub use mcc_datamodel::{QueryEngine, RelationalSchema};
    pub use mcc_graph::{BipartiteGraph, Graph, NodeId, NodeSet, Side};
    pub use mcc_hypergraph::{AcyclicityDegree, Hypergraph};
    pub use mcc_steiner::{SteinerInstance, SteinerTree};

    pub use crate::solver::{Solution, SolveStats, Solver, SteinerStrategy};
    pub use mcc_graph::{SolveBudget, Stage};
    pub use mcc_steiner::{Degraded, SolveError, SolveOutcome};
}
