//! The metrics registry: enum-indexed arrays of histograms plus the
//! solver's degradation count, a process-global instance, and the
//! Prometheus text exposition.
//!
//! The registry is deliberately *not* open-ended — the metric taxonomy
//! is the fixed enums in [`crate::names`], so registration is `const`,
//! lookup is array indexing, and the exposition order is total (enum
//! index order), which is what makes the snapshot test byte-stable.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::clock::active_clock;
use crate::metrics::{bucket_bound, Histogram};
use crate::names::{ClassLabel, SpanKind, N_CLASSES, N_SPANS};

/// All metrics for one process (or one test): per-stage duration
/// histograms, per-chordality-class solve histograms, and the count of
/// solves that stepped down the degradation ladder. Everything is
/// atomics, so `&Registry` is freely shared across worker threads.
///
/// Events that a component owns — cache and store traffic — are
/// counted once, by that component (`EngineStats`, `StoreStats`), and
/// are not repeated here.
pub struct Registry {
    stage: [Histogram; N_SPANS],
    solve_class: [Histogram; N_CLASSES],
    degraded: AtomicU64,
    enabled: AtomicBool,
}

impl Registry {
    /// A zeroed, enabled registry, usable in `static` position.
    pub const fn new() -> Self {
        const HZ: Histogram = Histogram::new();
        Registry {
            stage: [HZ; N_SPANS],
            solve_class: [HZ; N_CLASSES],
            degraded: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Whether recording is on (the runtime kill-switch).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the runtime kill-switch. With recording off, spans skip
    /// their clock reads and all record calls return immediately — the
    /// configuration the E14 overhead bench interleaves against.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records a stage duration (called by [`crate::Span`] on drop).
    #[inline]
    pub fn record_stage(&self, kind: SpanKind, nanos: u64) {
        if self.enabled() {
            self.stage[kind.index()].record(nanos);
        }
    }

    /// Records a completed solve's duration under its chordality class.
    #[inline]
    pub fn record_solve(&self, class: ClassLabel, nanos: u64) {
        if self.enabled() {
            self.solve_class[class.index()].record(nanos);
        }
    }

    /// Counts one solve that stepped down the degradation ladder. The
    /// `Solver` records it, so embedded solves that no engine sees are
    /// counted too.
    #[inline]
    pub fn record_degraded(&self) {
        if self.enabled() {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The per-stage duration histogram for `kind`.
    pub fn stage(&self, kind: SpanKind) -> &Histogram {
        &self.stage[kind.index()]
    }

    /// The per-class solve-duration histogram for `class`.
    pub fn solve_class(&self, class: ClassLabel) -> &Histogram {
        &self.solve_class[class.index()]
    }

    /// Solves that stepped down the degradation ladder so far.
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// The output is deterministic for a fixed registry state: metric
    /// families come in a fixed order, labelled series in enum index
    /// order, and histogram buckets from 0 up to the highest non-empty
    /// bucket (then `+Inf`), so two scrapes of the same state are
    /// byte-identical. Writing to a `String` cannot fail, so the
    /// `fmt::Write` results are discarded.
    pub fn render_prometheus_into(&self, out: &mut String) {
        // Per-stage duration histograms.
        let _ = writeln!(
            out,
            "# HELP mcc_stage_duration_nanos Time spent per solver stage, by tracing span."
        );
        let _ = writeln!(out, "# TYPE mcc_stage_duration_nanos histogram");
        for kind in SpanKind::ALL {
            render_histogram(
                out,
                "mcc_stage_duration_nanos",
                "stage",
                kind.label(),
                self.stage(kind),
            );
        }

        // Per-class solve histograms.
        let _ = writeln!(
            out,
            "# HELP mcc_solve_duration_nanos End-to-end solve time, by chordality class."
        );
        let _ = writeln!(out, "# TYPE mcc_solve_duration_nanos histogram");
        for class in ClassLabel::ALL {
            render_histogram(
                out,
                "mcc_solve_duration_nanos",
                "class",
                class.label(),
                self.solve_class(class),
            );
        }

        let _ = writeln!(
            out,
            "# HELP mcc_degraded_total Solves that stepped down the degradation ladder."
        );
        let _ = writeln!(out, "# TYPE mcc_degraded_total counter");
        let _ = writeln!(out, "mcc_degraded_total {}", self.degraded());
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// One histogram series: cumulative `_bucket` lines with `le="2^i"`
/// upper bounds from bucket 0 through the highest non-empty bucket,
/// a `+Inf` bucket, then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, label: &str, value: &str, h: &Histogram) {
    let top = h.highest_nonempty();
    let mut cumulative = 0u64;
    if let Some(top) = top {
        for i in 0..=top {
            cumulative += h.bucket(i);
            let _ = writeln!(
                out,
                "{name}_bucket{{{label}=\"{value}\",le=\"{}\"}} {cumulative}",
                bucket_bound(i)
            );
        }
    }
    let count = h.count();
    let _ = writeln!(
        out,
        "{name}_bucket{{{label}=\"{value}\",le=\"+Inf\"}} {count}"
    );
    let _ = writeln!(out, "{name}_sum{{{label}=\"{value}\"}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{{label}=\"{value}\"}} {count}");
}

/// The process-global registry every span and free-function recorder
/// targets. Tests that need isolation construct their own [`Registry`].
static GLOBAL: Registry = Registry::new();

/// The process-global [`Registry`].
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Whether the global registry is recording (runtime kill-switch).
#[inline]
pub fn enabled() -> bool {
    GLOBAL.enabled()
}

/// Flips the global registry's runtime kill-switch.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

/// The active clock's reading, or 0 when recording is off — spans use
/// this so a disabled registry costs one relaxed load, no clock read.
#[inline]
pub fn now_nanos() -> u64 {
    if GLOBAL.enabled() {
        active_clock().now_nanos()
    } else {
        0
    }
}

/// Records a stage duration into the global registry.
#[inline]
pub fn record_stage(kind: SpanKind, nanos: u64) {
    GLOBAL.record_stage(kind, nanos);
}

/// Records a per-class solve duration into the global registry.
#[inline]
pub fn record_solve(class: ClassLabel, nanos: u64) {
    GLOBAL.record_solve(class, nanos);
}

/// Renders the global registry in the Prometheus text format.
pub fn render_global_into(out: &mut String) {
    GLOBAL.render_prometheus_into(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.set_enabled(false);
        r.record_stage(SpanKind::McsOrder, 100);
        r.record_solve(ClassLabel::FourOne, 100);
        r.record_degraded();
        assert_eq!(r.stage(SpanKind::McsOrder).count(), 0);
        assert_eq!(r.solve_class(ClassLabel::FourOne).count(), 0);
        assert_eq!(r.degraded(), 0);
        r.set_enabled(true);
        r.record_stage(SpanKind::McsOrder, 100);
        assert_eq!(r.stage(SpanKind::McsOrder).count(), 1);
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let r = Registry::new();
        r.record_stage(SpanKind::Classify, 3);
        r.record_stage(SpanKind::ExactDp, 900);
        r.record_solve(ClassLabel::SixTwo, 42);
        r.record_degraded();
        r.record_degraded();

        let mut a = String::new();
        r.render_prometheus_into(&mut a);
        let mut b = String::new();
        r.render_prometheus_into(&mut b);
        assert_eq!(a, b, "two scrapes of the same state must be byte-identical");

        // Family order is fixed: stages, solves, degradations.
        let stage_at = a.find("mcc_stage_duration_nanos").unwrap();
        let solve_at = a.find("mcc_solve_duration_nanos").unwrap();
        let degraded_at = a.find("mcc_degraded_total").unwrap();
        assert!(stage_at < solve_at && solve_at < degraded_at);
        assert!(a.contains("mcc_degraded_total 2\n"));
        // Cumulative bucket counts end at the total.
        assert!(a.contains("mcc_stage_duration_nanos_bucket{stage=\"exact_dp\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn empty_histogram_renders_only_inf_bucket() {
        let r = Registry::new();
        let mut s = String::new();
        render_histogram(&mut s, "m", "stage", "x", r.stage(SpanKind::Kmb));
        assert_eq!(
            s,
            "m_bucket{stage=\"x\",le=\"+Inf\"} 0\nm_sum{stage=\"x\"} 0\nm_count{stage=\"x\"} 0\n"
        );
    }
}
