//! The worker-pool executor and its admission front door.
//!
//! ## Ownership
//!
//! The only state shared between threads is read-only or synchronized:
//! the artifact cache (`Arc`, internally locked), the bounded queue
//! (mutex + condvar), and the counters (atomics). Everything with
//! mutable scratch — the [`mcc::Solver`]s and their `Workspace`s — is
//! owned by exactly one worker thread and never crosses a thread
//! boundary. Workers keep a small per-thread solver table keyed by
//! `(SchemaId, generation)`, revalidated against the cache on every
//! request, so an invalidation atomically retires every worker's stale
//! solver at its next pickup.
//!
//! ## Admission and drain
//!
//! [`Engine::submit`] never blocks and never solves inline: it either
//! enqueues (bounded) or returns a typed [`Rejected`]. Shutdown flips a
//! flag under the queue lock — nothing new is admitted, but workers keep
//! draining until the queue is empty, so every admitted request gets its
//! answer before [`Engine::shutdown`] returns.
//!
//! ## Handoff
//!
//! A request crosses threads twice: submit → worker and reply → client.
//! Both crossings avoid a futex round trip when the peer is about to be
//! ready, with one bounded spin-then-yield poll ([`backoff`], an
//! iteration count — no clock, no knob) before parking:
//!
//! * **Pickup.** A worker that finds the queue empty tries to take the
//!   engine-wide *spin token*, so at most one worker spins at a time, and
//!   at most once per idle period. The holder releases the queue lock,
//!   polls an atomic mirror of the queue length, then clears the token,
//!   re-locks and re-checks before it parks on `work_ready`. `submit`
//!   skips its `notify_one` syscall when the job it pushed is the only
//!   one queued and the token is held: the spinner will find it.
//! * **Reply.** The [`Ticket`] is a one-shot slot: the client polls its
//!   `ready` flag before parking, and the worker signals the slot's
//!   condvar only if the client parked.
//!
//! No wakeup is lost when `submit` skips the signal. The spinner clears
//! the token (`SeqCst`) *before* it re-locks the queue, and `submit`
//! reads the token (`SeqCst`) *after* pushing under the lock. If that
//! read saw the token held, the holder's clear comes later in the
//! token's modification order, so the holder's re-lock cannot precede
//! `submit`'s push (that would make the clear happen-before the read,
//! which would then see it): the holder re-locks after the push and
//! finds the job. Every other wakeup is a predicate loop under the lock.

use crate::cache::{SchemaArtifactCache, SchemaId};
use crate::lock::{lock, Unlocked};
use crate::request::{
    backoff, reply_slot, EngineError, QueryKind, QueryRequest, Rejected, Reply, Response, Ticket,
};
use crate::stats::{Counters, EngineStats};
use mcc::{SolveError, Solver, SolverConfig};
use mcc_graph::Stage;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

/// Engine sizing and solver tuning.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads. `0` is allowed and means "admission only" — the
    /// queue fills but nothing drains (useful for tests and for staging
    /// work before workers exist); most callers want ≥ 1.
    pub workers: usize,
    /// Submission-queue capacity; the front door rejects with
    /// [`Rejected::QueueFull`] beyond this.
    pub queue_capacity: usize,
    /// Per-solve configuration (the exact route's terminal cap and the
    /// budget) applied to every request; a request's own budget replaces
    /// only the budget.
    pub solver: SolverConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: 1024,
            solver: SolverConfig::default(),
        }
    }
}

impl EngineConfig {
    /// A config with `workers` threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..Self::default()
        }
    }
}

/// One admitted request and the slot its answer goes back in.
struct SingleJob {
    request: QueryRequest,
    reply: Reply,
    /// Admission timestamp from the `mcc-obs` clock; a worker records
    /// `now − enqueued_nanos` into the queue-wait histogram at pickup.
    /// 0 when telemetry is disabled (the record is a no-op then too).
    enqueued_nanos: u64,
}

struct QueueState {
    jobs: VecDeque<SingleJob>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    /// `queue.jobs.len()`, stored under the queue lock at every push and
    /// pop, so the spinning worker can poll it without the lock. Only a
    /// hint: the spinner re-checks the queue itself under the lock.
    queued: AtomicUsize,
    /// The spin token: held by the one idle worker allowed to poll
    /// `queued` instead of parking. See the module doc's handoff section.
    spinner: AtomicBool,
    #[cfg(test)]
    probe: tests::Probe,
    capacity: usize,
    counters: Counters,
    cache: Arc<SchemaArtifactCache>,
}

impl Shared {
    /// Wakes a worker for a freshly pushed job, after the queue lock is
    /// released. `lone` means the push left exactly one job queued: if
    /// the spin token is held, its holder will find that job, so the
    /// signal (a syscall even with no one parked) is skipped.
    fn wake_workers(&self, lone: bool) {
        if lone && self.spinner.load(Ordering::SeqCst) {
            return;
        }
        self.work_ready.notify_one();
    }

    /// Takes the engine-wide spin token if no other worker holds it.
    fn take_spin_token(&self) -> bool {
        let taken = self
            .spinner
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        #[cfg(test)]
        if taken {
            let now = self.probe.spinning.fetch_add(1, Ordering::SeqCst) + 1;
            self.probe.spin_high_water.fetch_max(now, Ordering::SeqCst);
        }
        taken
    }

    fn release_spin_token(&self) {
        #[cfg(test)]
        self.probe.spinning.fetch_sub(1, Ordering::SeqCst);
        self.spinner.store(false, Ordering::SeqCst);
    }
}

/// The concurrent query-serving engine. See the crate docs for the
/// architecture and a usage example.
///
/// Dropping an engine without calling [`Engine::shutdown`] performs the
/// same graceful drain (admitted work is still answered); `shutdown` is
/// the explicit form that also returns the final [`EngineStats`].
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    config: EngineConfig,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("capacity", &self.capacity)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts the worker pool with a fresh, private artifact cache.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_cache(config, Arc::new(SchemaArtifactCache::new()))
    }

    /// Starts the worker pool over an existing (possibly shared)
    /// artifact cache — several engines can serve the same registered
    /// schemas without rebuilding artifacts.
    pub fn with_cache(config: EngineConfig, cache: Arc<SchemaArtifactCache>) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            queued: AtomicUsize::new(0),
            spinner: AtomicBool::new(false),
            #[cfg(test)]
            probe: tests::Probe::default(),
            capacity: config.queue_capacity.max(1),
            counters: Counters::default(),
            cache,
        });
        #[expect(
            clippy::expect_used,
            reason = "spawn failure during construction is fatal by design: no engine exists yet to surface an error through"
        )]
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let solver_config = config.solver;
                thread::Builder::new()
                    .name(format!("mcc-engine-worker-{i}"))
                    .spawn(move || worker_loop(&shared, solver_config))
                    .expect("spawning an engine worker thread")
            })
            .collect();
        Engine {
            shared,
            workers,
            config,
        }
    }

    /// The engine's artifact cache.
    pub fn cache(&self) -> &Arc<SchemaArtifactCache> {
        &self.shared.cache
    }

    /// The configuration the engine was started with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registers a schema with the engine's cache (building its artifact
    /// bundle); the returned id keys every [`QueryRequest`].
    pub fn register(
        &self,
        schema: mcc_datamodel::RelationalSchema,
    ) -> Result<SchemaId, crate::cache::CacheError> {
        self.shared.cache.register_in(schema, &mut Unlocked::new())
    }

    /// Admits `request`, or rejects it without blocking. The returned
    /// [`Ticket`] resolves to the answer; dropping the ticket abandons
    /// the answer but the request is still served (and counted).
    pub fn submit(&self, request: QueryRequest) -> Result<Ticket, Rejected> {
        let (reply, ticket) = reply_slot();
        let lone = {
            let t = &mut Unlocked::new();
            let mut q = lock(&self.shared.queue, t);
            if q.shutdown {
                self.shared
                    .counters
                    .rejected_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                return Err(Rejected::Shutdown);
            }
            if q.jobs.len() >= self.shared.capacity {
                self.shared
                    .counters
                    .rejected_full
                    .fetch_add(1, Ordering::Relaxed);
                return Err(Rejected::QueueFull);
            }
            q.jobs.push_back(SingleJob {
                request,
                reply,
                enqueued_nanos: mcc_obs::now_nanos(),
            });
            self.shared.queued.store(q.jobs.len(), Ordering::Relaxed);
            // Counted while still holding the queue lock (and `SeqCst`,
            // like the worker-side counters): a worker can only pop this
            // job after the lock is released, so its `solved`/`completed`
            // increments are ordered after this one and a mid-load
            // `stats()` snapshot can never report more outcomes than
            // submissions.
            self.shared
                .counters
                .submitted
                .fetch_add(1, Ordering::SeqCst);
            q.jobs.len() == 1
        };
        self.shared.wake_workers(lone);
        Ok(ticket)
    }

    /// A point-in-time activity snapshot.
    pub fn stats(&self) -> EngineStats {
        self.stats_in(&mut Unlocked::new())
    }

    fn stats_in(&self, t: &mut Unlocked) -> EngineStats {
        let depth = lock(&self.shared.queue, t).jobs.len();
        EngineStats::snapshot(
            &self.shared.counters,
            depth,
            self.shared.cache.hits(),
            self.shared.cache.misses(),
            self.shared.cache.store_stats(),
        )
    }

    /// Stops admission, drains every already-admitted request, joins the
    /// workers, and returns the final stats. With zero workers the queue
    /// cannot drain; pending tickets resolve to [`EngineError::Lost`].
    pub fn shutdown(mut self) -> EngineStats {
        let t = &mut Unlocked::new();
        self.begin_shutdown(t);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.stats_in(t)
    }

    fn begin_shutdown(&self, t: &mut Unlocked) {
        let mut q = lock(&self.shared.queue, t);
        q.shutdown = true;
        // No one will ever drain a zero-worker engine: drop its pending
        // jobs so their tickets resolve to `Lost` instead of hanging —
        // after the queue lock is released, since each reply end takes
        // its slot's lock as it drops.
        let abandoned = if self.workers.is_empty() {
            self.shared.queued.store(0, Ordering::Relaxed);
            std::mem::take(&mut q.jobs)
        } else {
            VecDeque::new()
        };
        drop(q);
        drop(abandoned);
        self.shared.work_ready.notify_all();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.begin_shutdown(&mut Unlocked::new());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: block for work, drain after shutdown, answer every job.
fn worker_loop(shared: &Shared, solver_config: SolverConfig) {
    // (generation, solver) per schema; revalidated against the cache on
    // every request. The solvers (and their workspaces) never leave this
    // thread.
    let mut solvers: HashMap<SchemaId, (u64, Solver)> = HashMap::new();
    let t = &mut Unlocked::new();
    loop {
        let job = {
            let mut q = lock(&shared.queue, t);
            let mut spun = false;
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    shared.queued.store(q.jobs.len(), Ordering::Relaxed);
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                if !spun && shared.take_spin_token() {
                    // Poll for the next job without the lock (at most
                    // once per idle period), then release the token
                    // *before* re-locking: the module doc's lost-wakeup
                    // argument rests on that order.
                    spun = true;
                    drop(q);
                    backoff(|| shared.queued.load(Ordering::Relaxed) != 0);
                    shared.release_spin_token();
                    q = lock(&shared.queue, t);
                    continue;
                }
                #[cfg(test)]
                shared.probe.parked.fetch_add(1, Ordering::SeqCst);
                // The predicate is re-checked on every wakeup: a wait may
                // wake spuriously, and `notify_one` may race a worker that
                // grabbed the job on its own.
                q = shared
                    .work_ready
                    .wait_while(q, |q| q.jobs.is_empty() && !q.shutdown)
                    .unwrap_or_else(PoisonError::into_inner);
                #[cfg(test)]
                shared.probe.parked.fetch_sub(1, Ordering::SeqCst);
            }
        };
        let Some(job) = job else { return };
        // Queue wait: admission (under the lock) to pickup (now).
        mcc_obs::record_stage(
            mcc_obs::SpanKind::QueueWait,
            mcc_obs::now_nanos().saturating_sub(job.enqueued_nanos),
        );
        let _serve_span = mcc_obs::span!(Serve);
        // Panic isolation: a panicking solve must cost one query, not the
        // worker — a dead worker stops draining the queue and breaks the
        // shutdown guarantee that every admitted request is answered. No
        // lock is held across `serve`, so nothing is poisoned.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve(shared, &mut solvers, solver_config, &job.request, t)
        }));
        deliver(shared, &mut solvers, outcome, job.reply, t);
    }
}

/// Translates a (possibly panicked) serve outcome into the response,
/// bumps the outcome counters, and sends the reply. On a panic the
/// per-thread solver table may hold a half-updated solver, so it is
/// discarded wholesale and lazily rebuilt from the shared artifact
/// cache.
///
/// Outcome counters are `SeqCst` to pair with the submit-side
/// `submitted` increment — see `Counters` for the snapshot consistency
/// argument (increments here run in the reverse of the snapshot's read
/// order).
fn deliver(
    shared: &Shared,
    solvers: &mut HashMap<SchemaId, (u64, Solver)>,
    outcome: std::thread::Result<Response>,
    reply: Reply,
    t: &mut Unlocked,
) {
    let result = match outcome {
        Ok(result) => result,
        Err(payload) => {
            solvers.clear();
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(EngineError::Solve(SolveError::Internal {
                stage: Stage::Session,
                detail: format!("solve panicked: {detail}"),
            }))
        }
    };
    match &result {
        Ok(sol) => {
            shared.counters.solved.fetch_add(1, Ordering::SeqCst);
            if sol.degraded.is_some() {
                shared.counters.degraded.fetch_add(1, Ordering::SeqCst);
            }
        }
        Err(_) => {
            shared.counters.failed.fetch_add(1, Ordering::SeqCst);
        }
    }
    // A dropped ticket is not an error: the request was served and
    // counted either way.
    reply.send(result, t);
    shared.counters.completed.fetch_add(1, Ordering::SeqCst);
}

/// Serves one request on the calling worker thread.
fn serve(
    shared: &Shared,
    solvers: &mut HashMap<SchemaId, (u64, Solver)>,
    solver_config: SolverConfig,
    request: &QueryRequest,
    t: &mut Unlocked,
) -> Response {
    let cached = shared
        .cache
        .artifacts_in(request.schema, t)
        .map_err(EngineError::Cache)?;
    // Test-only fault injection: a reserved object name panics inside the
    // serve path, letting the isolation regression tests exercise the
    // worker's catch_unwind without a real solver bug.
    #[cfg(test)]
    {
        if request.objects.iter().any(|o| o == "__mcc_engine_panic__") {
            panic!("injected panic (worker isolation test)");
        }
    }
    // Revalidate this worker's solver: schema invalidation bumps the
    // generation, retiring every worker's cached solver at next pickup.
    let entry = solvers.entry(request.schema);
    let (gen, solver) = entry.or_insert_with(|| {
        (
            cached.generation,
            Solver::from_artifacts(Arc::clone(&cached.artifacts), solver_config),
        )
    });
    if *gen != cached.generation {
        *gen = cached.generation;
        *solver = Solver::from_artifacts(Arc::clone(&cached.artifacts), solver_config);
    }

    let terminals = cached
        .artifacts
        .bipartite()
        .graph()
        .nodes_by_labels(&request.objects)
        .map_err(|name| EngineError::UnknownName(name.to_string()))?;

    // A per-request budget gets a transient solver over the same shared
    // artifacts — warm construction is just a workspace allocation, and
    // the long-lived solver's configuration stays untouched.
    let transient;
    let active: &Solver = match request.budget {
        Some(budget) => {
            let config = SolverConfig {
                budget,
                ..solver_config
            };
            transient = Solver::from_artifacts(Arc::clone(&cached.artifacts), config);
            &transient
        }
        None => solver,
    };

    let result = match request.kind {
        QueryKind::Steiner => active.solve_steiner(&terminals),
        QueryKind::Pseudo(side) => active.solve_pseudo(&terminals, side),
    };
    result.map_err(EngineError::Solve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_datamodel::RelationalSchema;
    use std::time::Duration;

    /// Test-only view of the workers' handoff state.
    #[derive(Default)]
    pub(super) struct Probe {
        /// Workers currently holding the spin token.
        pub(super) spinning: AtomicUsize,
        /// Most workers ever seen holding the spin token at once.
        pub(super) spin_high_water: AtomicUsize,
        /// Workers parked on `work_ready` (bumped under the queue lock).
        pub(super) parked: AtomicUsize,
    }

    fn acyclic() -> RelationalSchema {
        RelationalSchema::from_lists(
            "emp",
            &["emp_id", "name", "dept", "budget"],
            &[("EMP", &[0, 1, 2]), ("DEPT", &[2, 3])],
        )
    }

    #[test]
    fn serves_a_basic_query() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let id = engine.register(acyclic()).unwrap();
        let sol = engine
            .submit(QueryRequest::steiner(id, &["name", "budget"]))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(sol.strategy, mcc::SteinerStrategy::Algorithm2);
        assert_eq!(sol.cost, 5); // name – EMP – dept – DEPT – budget
    }

    #[test]
    fn unknown_name_is_reported() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let id = engine.register(acyclic()).unwrap();
        let err = engine
            .submit(QueryRequest::steiner(id, &["name", "salary"]))
            .unwrap()
            .wait()
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownName("salary".into()));
    }

    #[test]
    fn zero_worker_engine_admits_but_never_serves() {
        let engine = Engine::new(EngineConfig {
            workers: 0,
            queue_capacity: 2,
            solver: SolverConfig::default(),
        });
        let id = engine.register(acyclic()).unwrap();
        let t1 = engine.submit(QueryRequest::steiner(id, &["name"])).unwrap();
        let _t2 = engine.submit(QueryRequest::steiner(id, &["dept"])).unwrap();
        assert!(matches!(
            engine.submit(QueryRequest::steiner(id, &["budget"])),
            Err(Rejected::QueueFull)
        ));
        assert_eq!(engine.stats().queue_depth, 2);
        assert_eq!(engine.stats().rejected_full, 1);
        let stats = engine.shutdown();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(t1.wait(), Err(EngineError::Lost));
    }

    #[test]
    fn submit_after_shutdown_flag_is_rejected() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let id = engine.register(acyclic()).unwrap();
        engine.begin_shutdown(&mut Unlocked::new());
        assert!(matches!(
            engine.submit(QueryRequest::steiner(id, &["name"])),
            Err(Rejected::Shutdown)
        ));
        assert_eq!(engine.stats().rejected_shutdown, 1);
    }

    #[test]
    fn per_request_budget_overrides() {
        use mcc::SolveBudget;
        let engine = Engine::new(EngineConfig::with_workers(1));
        let id = engine.register(acyclic()).unwrap();
        // An already-expired deadline must trip the budget for this
        // request only…
        let starved = QueryRequest::steiner(id, &["name", "budget"])
            .with_budget(SolveBudget::with_deadline(std::time::Duration::ZERO));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = engine.submit(starved).unwrap().wait().unwrap_err();
        assert!(matches!(
            err,
            EngineError::Solve(mcc::SolveError::Budget(_))
        ));
        // …while the next, unbudgeted request is unaffected.
        let ok = engine
            .submit(QueryRequest::steiner(id, &["name", "budget"]))
            .unwrap()
            .wait();
        assert!(ok.is_ok());
    }

    #[test]
    fn worker_panic_does_not_wedge_shutdown() {
        // One worker: if the panic killed it, nothing could drain the
        // queue and the follow-up request (and shutdown) would hang.
        let engine = Engine::new(EngineConfig::with_workers(1));
        let id = engine.register(acyclic()).unwrap();
        let poisoned = engine
            .submit(QueryRequest::steiner(id, &["__mcc_engine_panic__"]))
            .unwrap();
        let err = poisoned.wait().unwrap_err();
        assert!(
            matches!(
                &err,
                EngineError::Solve(SolveError::Internal { stage, detail })
                    if *stage == Stage::Session && detail.contains("panicked")
            ),
            "expected an isolated internal error, got {err:?}"
        );
        // The same (sole) worker is still alive and serving.
        let ok = engine
            .submit(QueryRequest::steiner(id, &["name", "budget"]))
            .unwrap()
            .wait();
        assert!(ok.is_ok());
        let stats = engine.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.solved, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn answer_to_a_dropped_ticket_is_still_counted() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let id = engine.register(acyclic()).unwrap();
        drop(
            engine
                .submit(QueryRequest::steiner(id, &["name", "budget"]))
                .unwrap(),
        );
        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.solved, 1);
        assert_eq!(stats.completed, 1);
    }

    /// Oversubscribed load (more client threads than cores), in single
    /// submits and back-to-back pairs, on one and on two workers, with a
    /// final round that shuts down mid-load. A lost wakeup on either
    /// handoff would leave a ticket unanswered: every wait is bounded, so
    /// it fails instead of hanging.
    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "each wait is timed to catch a wakeup that lands only at the timeout"
    )]
    fn handoff_stays_live_under_oversubscribed_load() {
        const ROUNDS: usize = 6;
        const CLIENTS: usize = 8;
        const WINDOW: usize = 4;
        const PER_CLIENT: usize = 60;
        const TIMEOUT: Duration = Duration::from_secs(30);
        const QUERIES: [&[&str]; 4] = [
            &["name", "budget"],
            &["emp_id", "dept"],
            &["name", "dept", "budget"],
            &["emp_id"],
        ];
        let mut high_water = 0;
        for round in 0..ROUNDS {
            let shutdown_mid_load = round == ROUNDS - 1;
            let engine = Engine::new(EngineConfig::with_workers(1 + round % 2));
            let shared = Arc::clone(&engine.shared);
            let id = engine.register(acyclic()).unwrap();
            let settle = |ticket: Ticket| {
                let start = std::time::Instant::now();
                let answer = ticket.wait_timeout(TIMEOUT);
                // A reply that lands without waking its parked ticket is
                // only seen when the wait times out: fail on that too.
                assert!(start.elapsed() < TIMEOUT, "round {round}: lost wakeup");
                assert!(
                    matches!(answer, Some(Ok(_))),
                    "round {round}: ticket resolved to {answer:?}"
                );
            };
            thread::scope(|s| {
                for client in 0..CLIENTS {
                    let (engine, settle) = (&engine, &settle);
                    s.spawn(move || {
                        let mut inflight = VecDeque::new();
                        for i in 0..PER_CLIENT {
                            while inflight.len() >= WINDOW {
                                settle(inflight.pop_front().unwrap());
                            }
                            let request =
                                |k: usize| QueryRequest::steiner(id, QUERIES[(client + k) % 4]);
                            // Every third step submits two requests back to
                            // back, so a push often finds a job still queued.
                            let burst = if i % 3 == 0 { 2 } else { 1 };
                            let mut rejected = false;
                            for k in i..i + burst {
                                match engine.submit(request(k)) {
                                    Ok(ticket) => inflight.push_back(ticket),
                                    Err(_) => {
                                        rejected = true;
                                        break;
                                    }
                                }
                            }
                            if rejected {
                                break;
                            }
                        }
                        inflight.into_iter().for_each(settle);
                    });
                }
                if shutdown_mid_load {
                    while engine.stats().completed < (CLIENTS * PER_CLIENT / 4) as u64 {
                        thread::yield_now();
                    }
                    engine.begin_shutdown(&mut Unlocked::new());
                }
            });
            let stats = engine.shutdown();
            assert_eq!(stats.completed, stats.submitted, "round {round}");
            assert_eq!(stats.queue_depth, 0);
            let round_high_water = shared.probe.spin_high_water.load(Ordering::SeqCst);
            assert!(round_high_water <= 1, "round {round}: two spinners");
            high_water = high_water.max(round_high_water);
        }
        assert_eq!(high_water, 1, "no worker ever took the spin token");
    }

    /// The one case where `submit` must signal: every worker is parked.
    /// The probe's parked count is bumped under the queue lock just
    /// before the wait releases it, so a submit that follows it finds
    /// every worker inside `Condvar::wait_while`.
    #[test]
    fn a_lone_submit_wakes_a_fully_parked_pool() {
        for workers in [1, 2] {
            let engine = Engine::new(EngineConfig::with_workers(workers));
            let id = engine.register(acyclic()).unwrap();
            for _ in 0..20 {
                while engine.shared.probe.parked.load(Ordering::SeqCst) < workers {
                    thread::yield_now();
                }
                let answer = engine
                    .submit(QueryRequest::steiner(id, &["name", "budget"]))
                    .unwrap()
                    .wait_timeout(Duration::from_secs(30));
                assert!(matches!(answer, Some(Ok(_))), "lost wakeup: {answer:?}");
            }
        }
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        fn assert_send<T: Send>() {}
        assert_send::<Ticket>();
    }
}
