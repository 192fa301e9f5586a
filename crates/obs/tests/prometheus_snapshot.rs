//! Byte-determinism of the Prometheus text exposition.
//!
//! With the manually-advanced [`TestClock`] installed, span durations
//! are exact, so the global registry's render is a pure function of the
//! recording sequence below — the golden string pins metric names, help
//! text, label order, and bucket layout all at once. Any rename or
//! reorder is a scrape-breaking change and must show up here.
//!
//! This binary contains exactly one test: the global registry and the
//! installed clock are process-wide, so nothing else may touch them.

use mcc_obs::{ClassLabel, SpanKind, TestClock};

static CLOCK: TestClock = TestClock::new();

const GOLDEN: &str = include_str!("snapshots/global_registry.prom");

#[test]
fn global_render_is_byte_identical_to_golden() {
    assert!(
        mcc_obs::install_clock(&CLOCK),
        "first (and only) install in this process"
    );

    // One traced MCS-ordering span of exactly 1000ns…
    let trace = {
        let _t = mcc_obs::trace::begin();
        let span = mcc_obs::span!(McsOrder);
        CLOCK.advance(1_000);
        drop(span);
        mcc_obs::trace::snapshot()
    };
    assert_eq!(trace.count(SpanKind::McsOrder), 1);
    assert_eq!(trace.nanos(SpanKind::McsOrder), 1_000);

    // …one exact-DP span of exactly 2ms and a classified solve.
    let span = mcc_obs::span!(ExactDp);
    CLOCK.advance(2_000_000);
    drop(span);
    mcc_obs::record_solve(ClassLabel::SixTwo, 4_096);

    let mut out = String::new();
    mcc_obs::render_global_into(&mut out);
    assert_eq!(out, GOLDEN, "scrape output drifted from the golden file");

    // Rendering twice is byte-stable.
    let mut again = String::new();
    mcc_obs::render_global_into(&mut again);
    assert_eq!(out, again);
}
