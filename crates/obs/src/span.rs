//! RAII tracing spans.
//!
//! A [`Span`] times one stage: it reads the clock when opened and, on
//! drop, records the elapsed nanoseconds into the global registry's
//! per-stage histogram and notes itself into the thread's active
//! [`crate::SolveTrace`] (if one is collecting). When the runtime
//! kill-switch is off the span is born dead — no clock read, no record.

use crate::names::SpanKind;

/// An RAII guard timing one [`SpanKind`] stage. Create via
/// [`span`] or the [`crate::span!`] macro; the measurement lands when
/// the guard drops.
#[derive(Debug)]
pub struct Span {
    kind: SpanKind,
    start: u64,
    live: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            let elapsed = crate::registry::now_nanos().saturating_sub(self.start);
            crate::registry::record_stage(self.kind, elapsed);
            crate::trace::note(self.kind, elapsed);
        }
    }
}

/// Opens a span for `kind`. Returns a dead (cost-free) guard when the
/// runtime kill-switch is off.
#[inline]
pub fn span(kind: SpanKind) -> Span {
    let live = crate::registry::enabled();
    Span {
        kind,
        start: if live {
            crate::registry::now_nanos()
        } else {
            0
        },
        live,
    }
}

#[cfg(test)]
mod tests {
    use crate::names::SpanKind;
    use crate::trace;

    // These tests share the process-global registry with other tests in
    // this binary, so they assert deltas via the thread-local trace
    // (which `begin` isolates per test) rather than registry totals.

    #[test]
    fn span_notes_into_active_trace() {
        let _g = trace::begin();
        {
            let _s = crate::span!(Lemma1Order);
        }
        let t = trace::snapshot();
        assert_eq!(t.count(SpanKind::Lemma1Order), 1);
    }

    #[test]
    fn nested_spans_each_note() {
        let _g = trace::begin();
        {
            let _outer = crate::span!(SolveTotal);
            let _inner = crate::span!(ExactDp);
        }
        let t = trace::snapshot();
        assert_eq!(t.count(SpanKind::SolveTotal), 1);
        assert_eq!(t.count(SpanKind::ExactDp), 1);
    }
}
