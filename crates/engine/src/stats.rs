//! Engine-level observability: lock-free counters updated by the front
//! door and the workers, snapshotted into [`EngineStats`], and rendered
//! in the Prometheus text format.

use mcc_store::StoreStats;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// The engine's internal counters.
///
/// One request bumps its counters in a fixed order — `submitted` (inside
/// the queue lock), then `solved` (then `degraded`, if applicable) or
/// `failed`, then `completed` — and every increment is `SeqCst`.
/// [`Counters::snapshot`] loads in the **reverse** of that order, also
/// `SeqCst`: in the sequentially consistent total order, any increment a
/// snapshot observes implies the snapshot also observes every increment
/// the same request performed earlier. Mid-load scrapes therefore always
/// satisfy `completed ≤ solved + failed ≤ submitted` and
/// `degraded ≤ solved` — the regression that motivated this (an
/// unlocked, relaxed `submitted` bump racing a fast worker, letting a
/// scrape report more outcomes than submissions) is pinned by
/// `tests/stats_consistency.rs`.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub solved: AtomicU64,
    pub failed: AtomicU64,
    pub degraded: AtomicU64,
    pub rejected_full: AtomicU64,
    pub rejected_shutdown: AtomicU64,
}

/// The counter fields of one consistent snapshot (everything in
/// [`EngineStats`] except queue depth and the cache's own counters).
pub(crate) struct CounterSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub solved: u64,
    pub failed: u64,
    pub degraded: u64,
    pub rejected_full: u64,
    pub rejected_shutdown: u64,
}

impl Counters {
    /// One ordered read of every counter — downstream effects first,
    /// `submitted` last (see the type docs for why that order, combined
    /// with `SeqCst` increments, keeps `solved + failed ≤ submitted` in
    /// every snapshot).
    pub(crate) fn snapshot(&self) -> CounterSnapshot {
        let completed = self.completed.load(Ordering::SeqCst);
        let degraded = self.degraded.load(Ordering::SeqCst);
        let solved = self.solved.load(Ordering::SeqCst);
        let failed = self.failed.load(Ordering::SeqCst);
        let rejected_full = self.rejected_full.load(Ordering::SeqCst);
        let rejected_shutdown = self.rejected_shutdown.load(Ordering::SeqCst);
        let submitted = self.submitted.load(Ordering::SeqCst);
        CounterSnapshot {
            submitted,
            completed,
            solved,
            failed,
            degraded,
            rejected_full,
            rejected_shutdown,
        }
    }
}

/// A point-in-time snapshot of one engine's activity (see
/// [`crate::Engine::stats`]). Counter totals are monotonic;
/// `queue_depth` is instantaneous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests currently admitted but not yet picked up by a worker.
    pub queue_depth: usize,
    /// Requests admitted through the front door.
    pub submitted: u64,
    /// Requests fully served (answer delivered or caller gone).
    pub completed: u64,
    /// Served requests that produced a solution.
    pub solved: u64,
    /// Served requests that produced an error.
    pub failed: u64,
    /// Solutions that stepped down the degradation ladder (budget trips
    /// answered by the heuristic; see `mcc_steiner::Degraded`).
    pub degraded: u64,
    /// Submissions refused because the queue was at capacity.
    pub rejected_full: u64,
    /// Submissions refused because the engine was shutting down.
    pub rejected_shutdown: u64,
    /// Artifact-cache lookups served without schema-level work. Warm
    /// solves hit; a steady-state engine does **only** per-query work.
    pub cache_hits: u64,
    /// Artifact builds (cold registrations + post-invalidation
    /// rebuilds) — the only places classification and the MCS order
    /// run. A bundle's Lemma 1 routes are built later, once, by its
    /// first Algorithm 1 solve (or by the store's write-through encode).
    pub cache_misses: u64,
    /// Bundles the disk tier served in place of a classification pass
    /// (always 0 for a cache without a store).
    pub store_hits: u64,
    /// Disk-tier lookups that found no valid object.
    pub store_misses: u64,
    /// On-disk blobs quarantined after failing validation.
    pub store_quarantined: u64,
    /// Whether the disk tier is in degraded memory-only mode (rendered
    /// as a 0/1 gauge).
    pub store_degraded: bool,
}

/// The engine-level metric families [`EngineStats::render_prometheus`]
/// emits, in output order: `(name, type, help)`. Public so the snapshot
/// test (and any scrape consumer) can assert the name table.
pub const ENGINE_METRICS: [(&str, &str, &str); 14] = [
    (
        "mcc_engine_queue_depth",
        "gauge",
        "Requests admitted but not yet picked up by a worker.",
    ),
    (
        "mcc_engine_submitted_total",
        "counter",
        "Requests admitted through the front door.",
    ),
    (
        "mcc_engine_completed_total",
        "counter",
        "Requests fully served (answer delivered or caller gone).",
    ),
    (
        "mcc_engine_solved_total",
        "counter",
        "Served requests that produced a solution.",
    ),
    (
        "mcc_engine_failed_total",
        "counter",
        "Served requests that produced an error.",
    ),
    (
        "mcc_engine_degraded_total",
        "counter",
        "Solutions that stepped down the degradation ladder.",
    ),
    (
        "mcc_engine_rejected_full_total",
        "counter",
        "Submissions refused because the queue was at capacity.",
    ),
    (
        "mcc_engine_rejected_shutdown_total",
        "counter",
        "Submissions refused because the engine was shutting down.",
    ),
    (
        "mcc_engine_cache_hits_total",
        "counter",
        "Artifact-cache lookups served without schema-level work.",
    ),
    (
        "mcc_engine_cache_misses_total",
        "counter",
        "Artifact builds: cold registrations plus rebuilds.",
    ),
    (
        "mcc_engine_store_hits_total",
        "counter",
        "Bundles served from the disk tier instead of classification.",
    ),
    (
        "mcc_engine_store_misses_total",
        "counter",
        "Disk-tier lookups that found no valid object.",
    ),
    (
        "mcc_engine_store_quarantined_total",
        "counter",
        "On-disk blobs quarantined after failing validation.",
    ),
    (
        "mcc_engine_store_degraded",
        "gauge",
        "1 when the disk tier has degraded to memory-only mode.",
    ),
];

impl EngineStats {
    pub(crate) fn snapshot(
        counters: &Counters,
        queue_depth: usize,
        cache_hits: u64,
        cache_misses: u64,
        store: StoreStats,
    ) -> Self {
        let c = counters.snapshot();
        EngineStats {
            queue_depth,
            submitted: c.submitted,
            completed: c.completed,
            solved: c.solved,
            failed: c.failed,
            degraded: c.degraded,
            rejected_full: c.rejected_full,
            rejected_shutdown: c.rejected_shutdown,
            cache_hits,
            cache_misses,
            store_hits: store.hits,
            store_misses: store.misses,
            store_quarantined: store.quarantined,
            store_degraded: store.degraded,
        }
    }

    /// Renders this snapshot in the Prometheus text exposition format:
    /// the [`ENGINE_METRICS`] families, in table order, each with its
    /// `# HELP`/`# TYPE` header. A pure function of the (Copy) snapshot,
    /// so the output is deterministic by construction; for the solver
    /// stack's histograms append `mcc_obs::render_global_into` — the two
    /// use disjoint name prefixes (`mcc_engine_` vs. `mcc_`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.render_prometheus_into(&mut out);
        out
    }

    /// [`EngineStats::render_prometheus`], appending into `out`.
    pub fn render_prometheus_into(&self, out: &mut String) {
        let values: [u64; 14] = [
            self.queue_depth as u64,
            self.submitted,
            self.completed,
            self.solved,
            self.failed,
            self.degraded,
            self.rejected_full,
            self.rejected_shutdown,
            self.cache_hits,
            self.cache_misses,
            self.store_hits,
            self.store_misses,
            self.store_quarantined,
            self.store_degraded as u64,
        ];
        for ((name, kind, help), value) in ENGINE_METRICS.iter().zip(values) {
            // Writing to a String cannot fail; discard the fmt results.
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queue {} deep; {} submitted, {} completed ({} solved, {} failed, {} degraded); \
             rejected {} full + {} shutdown; \
             cache {} hits / {} misses; store {} hits / {} misses / {} quarantined{}",
            self.queue_depth,
            self.submitted,
            self.completed,
            self.solved,
            self.failed,
            self.degraded,
            self.rejected_full,
            self.rejected_shutdown,
            self.cache_hits,
            self.cache_misses,
            self.store_hits,
            self.store_misses,
            self.store_quarantined,
            if self.store_degraded {
                " (degraded to memory-only)"
            } else {
                ""
            }
        )
    }
}
