//! Per-solve structured traces.
//!
//! While a solve runs, every [`crate::Span`] that closes on the solving
//! thread also notes its duration into a thread-local accumulator; the
//! `Solver` snapshots that accumulator into the [`SolveTrace`] it
//! attaches to the returned `Solution`. The accumulator is `Cell` arrays
//! (const-init thread-local, no allocation, no locking), and
//! `SolveTrace` itself is a `Copy` struct of fixed arrays, so tracing
//! adds nothing to the hot path's allocation profile.

use std::time::Duration;

use crate::names::{SpanKind, N_SPANS};

/// A structured record of where one solve spent its time: per-stage
/// span counts and summed durations, indexed by [`SpanKind`]. Attached
/// to every `Solution`; all-zero when telemetry is disabled
/// ([`crate::set_enabled`]) or no spans fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveTrace {
    counts: [u32; N_SPANS],
    nanos: [u64; N_SPANS],
}

impl SolveTrace {
    /// An empty trace (what disabled telemetry produces).
    pub const EMPTY: SolveTrace = SolveTrace {
        counts: [0; N_SPANS],
        nanos: [0; N_SPANS],
    };

    /// How many spans of `kind` closed during the solve.
    pub fn count(&self, kind: SpanKind) -> u32 {
        self.counts[kind.index()]
    }

    /// Total time spent in spans of `kind`, in nanoseconds.
    pub fn nanos(&self, kind: SpanKind) -> u64 {
        self.nanos[kind.index()]
    }

    /// Total time spent in spans of `kind`, as a [`Duration`].
    pub fn duration(&self, kind: SpanKind) -> Duration {
        Duration::from_nanos(self.nanos(kind))
    }

    /// `true` if no span fired (telemetry disabled, or nothing traced).
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Merges another trace into this one (summing counts and nanos).
    pub fn merge(&mut self, other: &SolveTrace) {
        for i in 0..N_SPANS {
            self.counts[i] += other.counts[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    pub(crate) fn set(&mut self, idx: usize, count: u32, nanos: u64) {
        self.counts[idx] = count;
        self.nanos[idx] = nanos;
    }
}

impl std::fmt::Display for SolveTrace {
    /// Compact one-line rendering of the non-empty stages, in
    /// [`SpanKind`] index order: `mcs_order: 1×12µs, exact_dp: 1×3ms`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "(no trace)");
        }
        let mut first = true;
        for kind in SpanKind::ALL {
            let c = self.count(kind);
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}: {c}×{:?}", kind.label(), self.duration(kind))?;
        }
        Ok(())
    }
}

mod active {
    //! The thread-local accumulator spans write into while a solve's
    //! trace collection is active.

    use std::cell::Cell;

    use super::SolveTrace;
    use crate::names::{SpanKind, N_SPANS};

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
        static COUNTS: [Cell<u32>; N_SPANS] = const {
            const Z: Cell<u32> = Cell::new(0);
            [Z; N_SPANS]
        };
        static NANOS: [Cell<u64>; N_SPANS] = const {
            const Z: Cell<u64> = Cell::new(0);
            [Z; N_SPANS]
        };
    }

    /// Called by `Span::drop`: notes a closed span into the active
    /// trace, if collection is on for this thread.
    #[inline]
    pub(crate) fn note(kind: SpanKind, nanos: u64) {
        ACTIVE.with(|a| {
            if a.get() {
                let i = kind.index();
                COUNTS.with(|c| c[i].set(c[i].get().saturating_add(1)));
                NANOS.with(|n| n[i].set(n[i].get().saturating_add(nanos)));
            }
        });
    }

    /// Starts trace collection on this thread, clearing any stale
    /// accumulator state. Collection stops when the guard drops.
    /// Collection does not nest: the outermost guard owns the trace,
    /// and inner `begin` calls return an inert guard.
    pub fn begin() -> TraceGuard {
        let fresh = ACTIVE.with(|a| !a.replace(true));
        if fresh {
            COUNTS.with(|c| c.iter().for_each(|x| x.set(0)));
            NANOS.with(|n| n.iter().for_each(|x| x.set(0)));
        }
        TraceGuard { owner: fresh }
    }

    /// Snapshots the accumulator into a [`SolveTrace`].
    pub fn snapshot() -> SolveTrace {
        let mut t = SolveTrace::EMPTY;
        COUNTS.with(|c| {
            NANOS.with(|n| {
                for i in 0..N_SPANS {
                    t.set(i, c[i].get(), n[i].get());
                }
            });
        });
        t
    }

    /// RAII guard for one thread's trace-collection window.
    #[derive(Debug)]
    pub struct TraceGuard {
        owner: bool,
    }

    impl Drop for TraceGuard {
        fn drop(&mut self) {
            if self.owner {
                ACTIVE.with(|a| a.set(false));
            }
        }
    }
}

pub(crate) use active::note;
pub use active::{begin, snapshot, TraceGuard};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_outside_collection_is_dropped() {
        active::note(SpanKind::Kmb, 50);
        let _g = begin();
        assert!(snapshot().is_empty(), "stale notes must not leak in");
    }

    #[test]
    fn begin_clears_and_collects() {
        {
            let _g = begin();
            active::note(SpanKind::McsOrder, 10);
            active::note(SpanKind::McsOrder, 5);
            active::note(SpanKind::ExactDp, 100);
            let t = snapshot();
            assert_eq!(t.count(SpanKind::McsOrder), 2);
            assert_eq!(t.nanos(SpanKind::McsOrder), 15);
            assert_eq!(t.count(SpanKind::ExactDp), 1);
            assert!(!t.is_empty());
        }
        // Guard dropped: notes no longer collect, next begin starts fresh.
        active::note(SpanKind::Kmb, 1);
        let _g = begin();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn inner_begin_does_not_reset_outer() {
        let _outer = begin();
        active::note(SpanKind::Classify, 7);
        {
            let _inner = begin();
            active::note(SpanKind::Classify, 3);
        }
        // The inner guard neither cleared the trace nor stopped collection.
        active::note(SpanKind::Classify, 2);
        let t = snapshot();
        assert_eq!(t.count(SpanKind::Classify), 3);
        assert_eq!(t.nanos(SpanKind::Classify), 12);
    }

    #[test]
    fn merge_and_display() {
        let mut a = SolveTrace::EMPTY;
        a.set(SpanKind::McsOrder.index(), 1, 1000);
        let mut b = SolveTrace::EMPTY;
        b.set(SpanKind::McsOrder.index(), 2, 500);
        a.merge(&b);
        assert_eq!(a.count(SpanKind::McsOrder), 3);
        assert_eq!(a.nanos(SpanKind::McsOrder), 1500);
        let s = a.to_string();
        assert!(s.contains("mcs_order: 3×"), "got: {s}");
        assert_eq!(SolveTrace::EMPTY.to_string(), "(no trace)");
    }
}
