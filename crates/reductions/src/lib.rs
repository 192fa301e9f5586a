//! # `mcc-reductions` — the paper's NP-hardness gadgets
//!
//! Section 3 establishes the hardness boundary around the polynomial
//! cases:
//!
//! * **Theorem 2**: the Steiner problem is NP-complete on V₂-chordal,
//!   V₂-conformal bipartite graphs (α-acyclic schemas), by reduction from
//!   **Exact Cover by 3-Sets** — the Fig. 6 gadget, built here as
//!   [`Theorem2Gadget`] with its `4q + 1` threshold and solution mapping;
//! * **Corollary 3** follows for pseudo-Steiner w.r.t. `V1` on the same
//!   gadget (the `V1` count of a tree over `P̄ = V2` is exactly
//!   `|V′| − (3q + 1)`);
//! * the closing remarks: pseudo-Steiner w.r.t. `V2` stays NP-hard when
//!   either V₂-chordality or V₂-conformity is dropped, by the **CSPC**
//!   (cardinality Steiner in chordal graphs) reduction of Fig. 9 —
//!   [`CspcGadget`], an incidence construction whose `V2`-cost equals the
//!   source problem's arc count.
//!
//! Everything ships with brute-force reference solvers so the
//! equivalences are *checked*, not assumed, on small instances.

#![forbid(unsafe_code)]
// `clippy::unwrap_used` arrives at warn level from the workspace lint
// table ([lints] in Cargo.toml), promoted to an error in CI; unit
// tests are exempt -- tests should unwrap.

pub mod cspc;
pub mod x3c;
pub mod x3c_gadget;

pub use cspc::CspcGadget;
pub use x3c::X3cInstance;
pub use x3c_gadget::Theorem2Gadget;
