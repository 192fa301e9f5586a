//! Request/response vocabulary of the front door: what a client submits,
//! what can come back, and the [`Ticket`] joining the two across the
//! thread boundary.
//!
//! The join is a one-shot reply slot rather than a channel: a worker
//! resolves it exactly once, and the waiting client polls a `ready` flag
//! for a bounded while ([`backoff`]) before it parks on the slot's
//! condvar. The worker only signals the condvar when the client really
//! parked, so an answer that lands during the poll costs no syscall on
//! either side.

use crate::cache::{CacheError, SchemaId};
use crate::lock::{lock, Unlocked};
use mcc::{Solution, SolveBudget, SolveError};
use mcc_graph::Side;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// `spin_loop` steps of [`backoff`] before it starts yielding: a couple
/// of microseconds, enough for a peer already on its way.
const SPIN_STEPS: u32 = 64;
/// `yield_now` steps of [`backoff`] after the spin, before the caller
/// parks: about 100 µs on an otherwise idle core, the span of a warm
/// Algorithm 1/2 solve and most exact-DP solves. Yielding rather than
/// spinning is what makes the poll safe on a box with fewer cores than
/// busy threads: each step hands the core to any runnable thread — often
/// the very worker the caller waits on, which the scheduler tends to
/// wake on the waker's core. (With a 1024-step `spin_loop` phase instead,
/// `warm_serve`'s median on a 2-vCPU VM rose from ~22 to 36–55 µs.)
const YIELD_STEPS: u32 = 256;

/// Polls `ready` until it turns true or a bounded number of steps —
/// `spin_loop` first, then `yield_now` — have passed. The bound is an
/// iteration count, not a time: no clock is read. The caller re-checks
/// under its lock either way, and parks (in a predicate loop) if the
/// poll gave up.
pub(crate) fn backoff(mut ready: impl FnMut() -> bool) {
    for step in 0..SPIN_STEPS + YIELD_STEPS {
        if ready() {
            return;
        }
        if step < SPIN_STEPS {
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
}

/// Which problem a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Minimum total-node connection (Definition 8; Algorithm 2 /
    /// exact / heuristic).
    Steiner,
    /// Minimum connection w.r.t. one side's node count (Definition 9;
    /// Algorithm 1 / node-weighted exact).
    Pseudo(Side),
}

/// One unit of work for the engine: a query over a registered schema.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The schema to query (from [`crate::Engine::register`]).
    pub schema: SchemaId,
    /// Object names to connect (attribute or relation labels).
    pub objects: Vec<String>,
    /// Which problem to solve.
    pub kind: QueryKind,
    /// Per-request budget override. `None`: the engine's configured
    /// solver budget applies.
    pub budget: Option<SolveBudget>,
}

impl QueryRequest {
    /// A Steiner (minimum total nodes) request over named objects.
    pub fn steiner(schema: SchemaId, objects: &[&str]) -> Self {
        QueryRequest {
            schema,
            objects: objects.iter().map(|s| s.to_string()).collect(),
            kind: QueryKind::Steiner,
            budget: None,
        }
    }

    /// A pseudo-Steiner request minimizing `side` nodes.
    pub fn pseudo(schema: SchemaId, objects: &[&str], side: Side) -> Self {
        QueryRequest {
            kind: QueryKind::Pseudo(side),
            ..Self::steiner(schema, objects)
        }
    }

    /// Overrides the solve budget for this request only (e.g. a
    /// per-request deadline: `SolveBudget::with_deadline(..)`).
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Why a request failed after admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The request named a schema this engine's cache does not hold, or
    /// the schema failed validation on artifact rebuild.
    Cache(CacheError),
    /// An object name matched no attribute or relation of the schema.
    UnknownName(String),
    /// The solve itself failed (disconnected terminals, budget
    /// exhaustion with no fallback, internal error).
    Solve(SolveError),
    /// The engine shut down (or a worker died) before answering; the
    /// request was admitted but never served.
    Lost,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Cache(e) => write!(f, "{e}"),
            EngineError::UnknownName(n) => write!(f, "unknown object name {n:?}"),
            EngineError::Solve(e) => write!(f, "solve failed: {e}"),
            EngineError::Lost => write!(f, "the engine shut down before answering"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Why a request was refused at the front door (never admitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded submission queue is at capacity — backpressure;
    /// resubmit later or shed load.
    QueueFull,
    /// The engine is shutting down and admits nothing new.
    Shutdown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "submission queue is full"),
            Rejected::Shutdown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// The response a worker sends back for one request.
pub type Response = Result<Solution, EngineError>;

/// A claim on one admitted request's eventual answer.
///
/// A worker resolves the ticket exactly once. [`Ticket::wait`] first
/// polls for the answer — 64 `spin_loop` steps, then 256 `yield_now`
/// steps; an iteration count, so no clock and no setting — and only
/// then parks. The worker signals the ticket only if it parked. No
/// signal is missed: the ticket flags itself as parked under the slot's
/// lock before it waits, and the worker reads that flag under the same
/// lock as it stores the answer. An answer for a dropped ticket is
/// discarded — the request was still served and counted.
pub struct Ticket {
    slot: Arc<Slot>,
}

/// The worker's end of a [`Ticket`]: [`Reply::send`] resolves it once.
/// Dropped unsent (a job discarded at a zero-worker shutdown), it
/// resolves the ticket to [`EngineError::Lost`] — taking the slot lock
/// in `Drop`, where no token reaches: never drop one under a guard.
pub(crate) struct Reply {
    slot: Option<Arc<Slot>>,
}

/// A fresh, unresolved ticket and the reply end that resolves it.
pub(crate) fn reply_slot() -> (Reply, Ticket) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState::Pending { parked: false }),
        ready: AtomicBool::new(false),
        resolved: Condvar::new(),
    });
    (
        Reply {
            slot: Some(Arc::clone(&slot)),
        },
        Ticket { slot },
    )
}

struct Slot {
    state: Mutex<SlotState>,
    /// Set (under `state`'s lock) when `state` leaves `Pending`, so a
    /// polling ticket can see the answer without taking the lock.
    ready: AtomicBool,
    /// Signalled on resolution, and only when the ticket parked.
    resolved: Condvar,
}

#[expect(
    clippy::large_enum_variant,
    reason = "one slot per request, behind an `Arc`: the answer moves in place, and boxing it would add an allocation per reply"
)]
enum SlotState {
    /// No answer yet; `parked` is set by a ticket about to wait on the
    /// condvar, telling the reply end it must signal.
    Pending { parked: bool },
    /// The answer, not yet taken.
    Done(Response),
    /// The reply end was dropped unsent, or the answer was taken.
    Closed,
}

impl Slot {
    fn resolve(&self, to: SlotState, t: &mut Unlocked) {
        let mut state = lock(&self.state, t);
        let parked = matches!(*state, SlotState::Pending { parked: true });
        *state = to;
        self.ready.store(true, Ordering::Release);
        drop(state);
        if parked {
            self.resolved.notify_one();
        }
    }
}

impl SlotState {
    /// The predicate of the ticket's condvar waits: still pending, and
    /// flagged as parked so the reply end knows to signal.
    fn park_if_pending(&mut self) -> bool {
        match self {
            SlotState::Pending { parked } => {
                *parked = true;
                true
            }
            _ => false,
        }
    }

    /// Takes a resolved answer, leaving the slot `Closed`.
    fn take(&mut self) -> Response {
        match std::mem::replace(self, SlotState::Closed) {
            SlotState::Done(response) => response,
            _ => Err(EngineError::Lost),
        }
    }
}

impl Reply {
    /// Resolves the ticket with `response`.
    pub(crate) fn send(mut self, response: Response, t: &mut Unlocked) {
        if let Some(slot) = self.slot.take() {
            slot.resolve(SlotState::Done(response), t);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.resolve(SlotState::Closed, &mut Unlocked::new());
        }
    }
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.slot.ready.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the answer arrives. [`EngineError::Lost`] if the
    /// engine dropped the request (shutdown race, worker death).
    pub fn wait(self) -> Response {
        backoff(|| self.slot.ready.load(Ordering::Acquire));
        let t = &mut Unlocked::new();
        let state = lock(&self.slot.state, t);
        let mut state = self
            .slot
            .resolved
            .wait_while(state, SlotState::park_if_pending)
            .unwrap_or_else(PoisonError::into_inner);
        state.take()
    }

    /// As [`Ticket::wait`], giving up (and consuming the ticket) after
    /// `timeout`; `None` on timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Option<Response> {
        let t = &mut Unlocked::new();
        let state = lock(&self.slot.state, t);
        let (mut state, _) = self
            .slot
            .resolved
            .wait_timeout_while(state, timeout, SlotState::park_if_pending)
            .unwrap_or_else(PoisonError::into_inner);
        match *state {
            SlotState::Pending { .. } => None,
            _ => Some(state.take()),
        }
    }

    /// Non-blocking poll: `None` while the answer is still in flight.
    pub fn try_wait(&self) -> Option<Response> {
        if !self.slot.ready.load(Ordering::Acquire) {
            return None;
        }
        Some(lock(&self.slot.state, &mut Unlocked::new()).take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> Response {
        Err(EngineError::UnknownName("x".into()))
    }

    #[test]
    fn wait_returns_the_answer_sent_from_another_thread() {
        let (reply, ticket) = reply_slot();
        let worker = thread::spawn(move || reply.send(answer(), &mut Unlocked::new()));
        assert_eq!(ticket.wait(), answer());
        worker.join().unwrap();
    }

    #[test]
    fn wait_parks_past_the_backoff_and_is_woken() {
        // The reply is only sent once the ticket has flagged itself as
        // parked, so this exercises the condvar path, not the poll. The
        // wait runs on its own thread so a missed signal fails the test
        // instead of hanging it.
        let (reply, ticket) = reply_slot();
        let slot = Arc::clone(&ticket.slot);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = thread::spawn(move || tx.send(ticket.wait()).unwrap());
        while !matches!(
            *lock(&slot.state, &mut Unlocked::new()),
            SlotState::Pending { parked: true }
        ) {
            thread::yield_now();
        }
        reply.send(answer(), &mut Unlocked::new());
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(answer()));
        waiter.join().unwrap();
    }

    #[test]
    fn try_wait_is_none_in_flight_and_some_after() {
        let (reply, ticket) = reply_slot();
        assert_eq!(ticket.try_wait(), None);
        reply.send(answer(), &mut Unlocked::new());
        assert_eq!(ticket.try_wait(), Some(answer()));
        // The answer is delivered once; the slot is closed after.
        assert_eq!(ticket.try_wait(), Some(Err(EngineError::Lost)));
    }

    #[test]
    fn wait_timeout_is_none_on_timeout() {
        let (_reply, ticket) = reply_slot();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
        let (reply, ticket) = reply_slot();
        reply.send(answer(), &mut Unlocked::new());
        assert_eq!(ticket.wait_timeout(Duration::from_secs(30)), Some(answer()));
    }

    #[test]
    fn reply_dropped_unsent_resolves_to_lost() {
        let (reply, ticket) = reply_slot();
        drop(reply);
        assert_eq!(ticket.wait(), Err(EngineError::Lost));
        let (reply, ticket) = reply_slot();
        drop(reply);
        assert_eq!(ticket.try_wait(), Some(Err(EngineError::Lost)));
        let (reply, ticket) = reply_slot();
        let worker = thread::spawn(move || drop(reply));
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(30)),
            Some(Err(EngineError::Lost))
        );
        worker.join().unwrap();
    }

    #[test]
    fn sending_to_a_dropped_ticket_is_harmless() {
        let (reply, ticket) = reply_slot();
        drop(ticket);
        reply.send(answer(), &mut Unlocked::new());
    }

    #[test]
    fn backoff_is_bounded_and_stops_early() {
        let mut polls = 0u32;
        backoff(|| {
            polls += 1;
            false
        });
        assert_eq!(polls, SPIN_STEPS + YIELD_STEPS);
        let mut polls = 0u32;
        backoff(|| {
            polls += 1;
            polls == 3
        });
        assert_eq!(polls, 3);
    }
}
