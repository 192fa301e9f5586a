//! # `mcc-obs` — observability for the solver stack
//!
//! This crate makes the solver stack **legible at runtime**. The
//! ROADMAP's per-acyclicity-class
//! performance envelopes (cf. Theorems 3–5 and the E10–E13 experiments)
//! are only auditable in production if the serving system records *where*
//! time goes — MCS ordering vs. elimination vs. exact DP vs. KMB — and
//! *which* chordality class each solve landed in. Three pieces:
//!
//! * a **metrics registry** ([`Registry`], [`metrics`]) that is lock-free
//!   on the hot path: fixed log2-bucket histograms per stage and per
//!   chordality class, plus the solver's degradation count, all plain
//!   atomics — solve loops never contend on a lock. Cache and store
//!   events are counted once, by the engine and the store that own
//!   them, not here;
//! * lightweight **tracing spans** ([`span!`], [`Span`]): RAII guards
//!   that time a stage ([`SpanKind`]) into the global registry and into
//!   the calling thread's active [`SolveTrace`], with **zero heap
//!   allocation** — the PR 1/2 zero-alloc hot-path guarantees survive
//!   (pinned by `crates/steiner/tests/alloc_regression.rs`);
//! * a text **export** ([`Registry::render_prometheus_into`],
//!   [`render_global_into`]) in the Prometheus exposition format, plus
//!   the structured [`SolveTrace`] record `mcc` attaches to every
//!   `Solution` — operators and benches consume the same numbers.
//!
//! ## The clock seam
//!
//! Wall-clock reads are confined to [`clock`]: a [`Clock`] trait with a
//! monotonic production implementation (the one library exemption from
//! clippy's `disallowed-methods` list outside the budget layer) and a
//! manually advanced [`TestClock`] so tests — including the
//! Prometheus snapshot test — are byte-deterministic.
//!
//! ## Turning it off
//!
//! [`set_enabled`]`(false)` is the one off-switch: it suppresses clock
//! reads and recording while keeping every call site compiled — what the
//! interleaved A/B bench (EXPERIMENTS.md §E14) toggles. That bench finds
//! recording costs nothing measurable, so there is no compile-time
//! switch.

#![forbid(unsafe_code)]
// `const Z: AtomicU64 = AtomicU64::new(0); [Z; N]` is the array-repetition
// idiom this crate uses to `const`-construct its atomic arrays (required
// for the registry to live in `static` position). Each such const is a
// zero template consumed immediately by one repeat expression — never a
// shared constant anyone reads through — so the lint's footgun (silently
// copying an atomic) cannot arise.
#![allow(
    clippy::declare_interior_mutable_const,
    reason = "each atomic const is a zero template for one array-repeat expression"
)]

/// The workspace's clock seam: the monotonic default and the test clock.
pub mod clock;
/// Log-bucketed histograms.
pub mod metrics;
mod names;
mod registry;
mod span;
/// Per-solve structured traces collected from closing spans.
pub mod trace;

pub use clock::{install_clock, Clock, TestClock};
pub use metrics::{Histogram, NUM_BUCKETS};
pub use names::{ClassLabel, SpanKind, N_CLASSES, N_SPANS};
pub use registry::Registry;
pub use registry::{
    enabled, global, now_nanos, record_solve, record_stage, render_global_into, set_enabled,
};
pub use span::{span, Span};
pub use trace::SolveTrace;

/// Opens a [`Span`] for the named [`SpanKind`] variant:
/// `let _guard = mcc_obs::span!(McsOrder);`. The guard records the
/// stage's duration when dropped (a no-op when telemetry is disabled).
#[macro_export]
macro_rules! span {
    ($kind:ident) => {
        $crate::span($crate::SpanKind::$kind)
    };
}
