//! Telemetry conservation: under concurrent N-worker × M-submitter load,
//! the observability layer must account for *every* request exactly once.
//!
//! The law: each admitted request is popped by exactly one worker, which
//! records exactly one queue-wait sample and one serve-span sample before
//! bumping `completed`. So after a full drain,
//!
//! ```text
//! Δ queue_wait.count == Δ serve.count == stats.completed == stats.submitted
//! ```
//!
//! Rejected requests are never enqueued and must leave no sample. The
//! global registry is process-wide, so this suite lives in its own test
//! binary and measures deltas.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_datamodel::RelationalSchema;
use mcc_engine::{Engine, EngineConfig, QueryRequest};
use mcc_obs::SpanKind;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The test harness runs `#[test]`s in parallel threads, but both tests
/// below touch the process-global registry (deltas + the kill-switch),
/// so they serialize through this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn schema() -> RelationalSchema {
    RelationalSchema::from_lists(
        "emp",
        &["emp_id", "name", "dept", "budget"],
        &[("EMP", &[0, 1, 2]), ("DEPT", &[2, 3])],
    )
}

/// Runs one N×M load burst and returns `(stats, Δqueue_wait, Δserve)`.
fn run_load(
    workers: usize,
    submitters: usize,
    per_submitter: usize,
) -> (mcc_engine::EngineStats, u64, u64) {
    let reg = mcc_obs::global();
    let qw0 = reg.stage(SpanKind::QueueWait).count();
    let sv0 = reg.stage(SpanKind::Serve).count();

    let engine = Arc::new(Engine::new(EngineConfig {
        workers,
        // Large enough that no request is rejected: a rejected request
        // must leave no histogram sample, which the equality below
        // checks implicitly (a stray sample would break it).
        queue_capacity: submitters * per_submitter + 1,
        solver: Default::default(),
    }));
    let id = engine.register(schema()).unwrap();

    let handles: Vec<_> = (0..submitters)
        .map(|s| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let tickets: Vec<_> = (0..per_submitter)
                    .map(|i| {
                        let objects: &[&str] = if (s + i) % 2 == 0 {
                            &["name", "budget"]
                        } else {
                            &["emp_id", "dept"]
                        };
                        engine
                            .submit(QueryRequest::steiner(id, objects))
                            .expect("queue sized for the full load")
                    })
                    .collect();
                for t in tickets {
                    t.wait().expect("well-formed query solves");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let engine = Arc::try_unwrap(engine).expect("all clones joined");
    let stats = engine.shutdown();
    let qw1 = reg.stage(SpanKind::QueueWait).count();
    let sv1 = reg.stage(SpanKind::Serve).count();
    (stats, qw1 - qw0, sv1 - sv0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation under racing workers and submitters: histogram
    /// sample counts and the engine's books agree exactly.
    #[test]
    fn queue_wait_samples_equal_completed_requests(
        workers in 1usize..=4,
        submitters in 1usize..=4,
        per_submitter in 5usize..=40,
    ) {
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only lock serializing two tests; no engine lock is taken under it"
        )]
        let _serial = SERIAL.lock().unwrap();
        let expected = (submitters * per_submitter) as u64;
        let (stats, d_queue_wait, d_serve) = run_load(workers, submitters, per_submitter);

        // The engine's own books balance…
        prop_assert_eq!(stats.submitted, expected);
        prop_assert_eq!(stats.completed, expected);
        prop_assert_eq!(stats.solved + stats.failed, expected);
        prop_assert_eq!(stats.failed, 0u64);
        prop_assert_eq!(stats.rejected_full, 0u64);

        // …and telemetry conserves them: one queue-wait sample and one
        // serve sample per completed request, no more, no less.
        prop_assert_eq!(d_queue_wait, stats.completed);
        prop_assert_eq!(d_serve, stats.completed);
    }
}

/// The kill-switch stops sampling but must not corrupt the books: with
/// recording off, the load runs to completion and leaves no samples.
#[test]
fn kill_switch_off_leaves_no_samples_but_books_balance() {
    #[expect(
        clippy::disallowed_methods,
        reason = "test-only lock serializing two tests; no engine lock is taken under it"
    )]
    let _serial = SERIAL.lock().unwrap();
    mcc_obs::set_enabled(false);
    let (stats, d_queue_wait, d_serve) = run_load(2, 2, 10);
    mcc_obs::set_enabled(true);

    assert_eq!(stats.completed, 20);
    assert_eq!(stats.solved, 20);
    assert_eq!(d_queue_wait, 0, "disabled registry must not sample");
    assert_eq!(d_serve, 0, "disabled registry must not sample");
}
