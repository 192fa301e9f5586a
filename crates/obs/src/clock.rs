//! The workspace's clock seam.
//!
//! Clippy's `disallowed-methods` list (root `clippy.toml`) confines raw
//! `Instant::now()` reads to the budget/cancellation layer — everything
//! else must go through a seam it can fake. This module is that seam for
//! telemetry: a [`Clock`] trait with one production implementation
//! ([`MonotonicClock`](crate::clock::MonotonicClock), the single
//! justified wall-clock read outside `budget.rs`) and a manually
//! advanced [`TestClock`] so span durations, queue waits, and the
//! Prometheus snapshot test are byte-deterministic.
//!
//! The installed clock is process-global and write-once:
//! [`install_clock`] succeeds at most once (tests install a `TestClock`
//! before any telemetry fires); when nothing is installed, the monotonic
//! clock is used.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A monotonic nanosecond source for span timing. Implementations must
/// never move backwards.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch.
    fn now_nanos(&self) -> u64;
}

/// The production clock: nanoseconds since the first read, via the
/// standard monotonic clock.
#[derive(Debug, Default)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the telemetry clock seam itself: every span, queue-wait and per-class histogram derives its timing from this read"
    )]
    fn now_nanos(&self) -> u64 {
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// A manually advanced clock for deterministic tests: time moves only
/// when [`TestClock::advance`] (or [`TestClock::set`]) is called.
#[derive(Debug, Default)]
pub struct TestClock {
    nanos: AtomicU64,
}

impl TestClock {
    /// A test clock starting at 0 ns.
    pub const fn new() -> Self {
        TestClock {
            nanos: AtomicU64::new(0),
        }
    }

    /// Advances the clock by `nanos` nanoseconds.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute reading.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for TestClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

static INSTALLED: OnceLock<&'static dyn Clock> = OnceLock::new();
static MONOTONIC: MonotonicClock = MonotonicClock;

/// Installs a process-global clock override (normally a `&'static
/// TestClock`). Returns `false` if a clock was already installed — the
/// seam is write-once so production code cannot race tests.
pub fn install_clock(clock: &'static dyn Clock) -> bool {
    INSTALLED.set(clock).is_ok()
}

/// The active clock: the installed override, else the monotonic clock.
pub fn active_clock() -> &'static dyn Clock {
    match INSTALLED.get() {
        Some(c) => *c,
        None => &MONOTONIC,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_is_manual() {
        let c = TestClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_nanos(), 12);
        c.set(3);
        assert_eq!(c.now_nanos(), 3);
    }

    #[test]
    fn monotonic_clock_never_regresses() {
        let a = MonotonicClock.now_nanos();
        let b = MonotonicClock.now_nanos();
        assert!(b >= a);
    }
}
