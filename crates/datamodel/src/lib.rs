//! # `mcc-datamodel` — semantic data models and the query interface
//!
//! The paper's motivation (Section 1): a *logically independent* query
//! interface lets a user name objects — attributes, entities, relations —
//! without knowing how they are aggregated; the system answers by finding
//! a **minimal conceptual connection** among them (a Steiner tree on the
//! schema graph), possibly offering alternative interpretations.
//!
//! This crate provides the data-model layer:
//!
//! * [`er`] — entity-relationship schemas (Fig. 1) and their k-partite
//!   concept graphs;
//! * [`relational`] — relational schemas ⟷ hypergraphs ⟷ bipartite
//!   graphs (attributes on `V1`, relations on `V2`);
//! * [`classify`] — a schema audit: chordality/acyclicity classification
//!   plus which connection problems are tractable (Section 3's map);
//! * [`query`] — the query engine: resolve object names, pick the
//!   strongest applicable algorithm (Algorithm 2 → Algorithm 1 → exact →
//!   heuristic), return the connection with its provenance;
//! * [`interpret`] — enumeration of alternative minimal interpretations
//!   (the EMPLOYEE/DATE ambiguity of the introduction).
//!
//! Every user-reachable surface here is panic-isolated: queries and
//! disambiguation sessions run under a [`mcc_graph::SolveBudget`], report
//! failures as values ([`QueryError`], [`SessionError`]), and catch
//! solver panics at the boundary instead of unwinding into the caller.

#![forbid(unsafe_code)]
// User input flows through this crate (DSL parsing, schema encoding,
// query resolution); recoverable failures must be `Err`s, not unwraps.
// `clippy::unwrap_used` arrives at warn level from the workspace lint
// table ([lints] in Cargo.toml), promoted to an error in CI; unit
// tests are exempt -- tests should unwrap.

/// Named example schemas used across tests and docs.
pub mod catalog;
/// Schema audits against the paper's acyclicity classes.
pub mod classify;
/// A tiny text DSL for declaring relational schemas.
pub mod dsl;
/// Schema-to-bipartite-graph encodings (the paper's G(S)).
pub mod encode;
/// Entity-relationship schema declarations and their encoding.
pub mod er;
/// Query interpretation: minimal connections as join candidates.
pub mod interpret;
/// Join-plan extraction from solved connection trees.
pub mod join_plan;
/// Query terms and terminal-set resolution against a schema.
pub mod query;
/// Relational schema model: relations over shared attributes.
pub mod relational;
/// A stateful query session owning solver workspaces.
pub mod session;

pub use classify::{apply_repair_suggestion, audit_relational, SchemaReport};
pub use dsl::{parse_schema, render_schema};
pub use encode::er_to_relational;
pub use er::{ErGraph, ErSchema, NodeKind};
pub use interpret::{try_enumerate_connections, try_enumerate_tree_interpretations};
pub use join_plan::{join_plan, JoinPlan};
pub use query::{Interpretation, QueryEngine, QueryError, Strategy};
pub use relational::{Relation, RelationalSchema, RelationalSchemaError};
pub use session::{DisambiguationSession, Proposal, SessionError};
