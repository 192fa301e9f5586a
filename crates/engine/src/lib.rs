//! # `mcc-engine` — concurrent query serving over the paper's solvers
//!
//! The paper's central economics: deciding *how* to answer minimal
//! connection queries — classification into the chordality/acyclicity
//! hierarchy (Theorem 1), the Lemma 1 ordering behind Algorithm 1, the
//! elimination order of Algorithm 2 — is **schema-level** work, while
//! each query only pays for an elimination sweep (Theorems 3–5). A
//! serving system should therefore compute the schema artifacts once and
//! share them across every query and every thread. This crate is that
//! system, in three pieces:
//!
//! * [`SchemaArtifactCache`] — registered schemas each get one immutable,
//!   `Arc`-shared [`mcc::SchemaArtifacts`] bundle (classification, MCS
//!   elimination order, Lemma 1 orderings + `H¹` join tree, CSR
//!   substrate), built on registration and invalidated when the schema
//!   changes. Hit/miss counters make the "warm solves skip schema work"
//!   claim observable.
//! * [`Engine`] — a worker-pool executor (`std::thread`, a bounded
//!   queue and one-shot reply slots, no async runtime). The queue holds
//!   one kind of job, a single request: with the schema work cached,
//!   grouping requests would have nothing left to amortize. Each worker
//!   owns its solvers and their `Workspace`s outright — scratch memory
//!   is never shared, only the read-only artifacts are. A per-request
//!   [`SolveBudget`] (a deadline and a DP table byte cap) rides on the
//!   request.
//! * the **front door** — [`Engine::submit`] never blocks: a bounded
//!   queue admits work, [`Rejected::QueueFull`] /
//!   [`Rejected::Shutdown`] push back, [`Engine::shutdown`] drains what
//!   was admitted, and [`EngineStats`] reports depth, outcomes,
//!   degradations, and cache traffic.
//!
//! No engine lock is ever held while another is taken, nor while
//! anything blocks but the cache's one unlink on invalidation; [`lock`]
//! turns that rule into a borrow the compiler checks.
//!
//! ```
//! use mcc_engine::{Engine, EngineConfig, QueryRequest};
//! use mcc_datamodel::RelationalSchema;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let hr = engine
//!     .register(RelationalSchema::from_lists(
//!         "hr",
//!         &["emp", "dept", "budget"],
//!         &[("WORKS_IN", &[0, 1]), ("FUNDING", &[1, 2])],
//!     ))
//!     .unwrap();
//! let ticket = engine.submit(QueryRequest::steiner(hr, &["emp", "budget"])).unwrap();
//! let solution = ticket.wait().unwrap();
//! assert_eq!(solution.cost, 5); // emp – WORKS_IN – dept – FUNDING – budget
//! let stats = engine.shutdown();
//! assert_eq!(stats.solved, 1);
//! ```

#![forbid(unsafe_code)]

mod cache;
mod engine;
pub mod lock;
mod request;
mod stats;

pub use cache::{CacheError, CachedArtifacts, SchemaArtifactCache, SchemaId};
pub use engine::{Engine, EngineConfig};
pub use request::{EngineError, QueryKind, QueryRequest, Rejected, Ticket};
pub use stats::{EngineStats, ENGINE_METRICS};

pub use mcc::{Solution, SolveBudget, SolverConfig};
pub use mcc_graph::Side;
pub use mcc_store::{ArtifactStore, StoreStats};
