//! Resource budgets and cooperative cancellation for the solver stack.
//!
//! The paper's complexity map (Theorems 2–5) is a degradation ladder:
//! optimal-polynomial on (6,2)-chordal graphs, side-optimal on α-acyclic
//! schemes, NP-hard beyond. A production solver must *walk down* that
//! ladder instead of falling off it — one adversarial query (say, 24
//! terminals on an off-class graph) must not wedge the process. This
//! module provides the mechanism:
//!
//! * [`SolveBudget`] — the two declarative limits on one solve: a
//!   wall-clock deadline and the exact DP's table bytes. Theorem 2 puts
//!   the hardness in the terminal count alone, so instance size is not a
//!   budget: which terminal counts reach the exact DP at all is a routing
//!   decision (`SolverConfig::max_exact_terminals` in `mcc-steiner`),
//!   and the DP's table bytes are what that count costs;
//! * [`CancelToken`] — a cheap, tick-based cooperative cancellation
//!   handle threaded through the hot loops. Ticks are a counter
//!   decrement; the clock is consulted only every [`TICK_PERIOD`] units
//!   of work, so the zero-allocation fast paths keep their performance
//!   guarantees (measured <2% on the Algorithm 1/2 elimination loops,
//!   see EXPERIMENTS.md §E11);
//! * [`BudgetExceeded`] — the structured verdict: which [`Stage`] was
//!   running, which [`BudgetKind`] tripped, the limit, and how much was
//!   observed/consumed.
//!
//! The types live in `mcc-graph` (the root of the crate DAG) so the
//! Steiner routes, the auto-dispatching solver, and the data-model query
//! surface can all share one taxonomy.

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

/// Units of work between two consultations of the wall clock by
/// [`CancelToken::tick`]. A unit approximates one node visit; the
/// elimination loops charge `|V|` per connectivity test and the exact DP
/// charges its inner-loop lengths, so at ~2 ns/unit the deadline is
/// checked every ~0.5 ms of work regardless of instance shape.
pub const TICK_PERIOD: u64 = 1 << 18;

/// Which solver stage was executing when a budget verdict was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Graph/schema classification (recognizers).
    Classify,
    /// The paper's Algorithm 1 (pseudo-Steiner, Theorems 3–4).
    Algorithm1,
    /// The paper's Algorithm 2 (Steiner on (6,2)-chordal, Theorem 5).
    Algorithm2,
    /// The Dreyfus–Wagner exact dynamic program.
    ExactDp,
    /// The KMB-style 2-approximation heuristic.
    Heuristic,
    /// Interpretation/cover enumeration (data-model layer).
    Enumeration,
    /// The session/query boundary itself (admission checks, panic
    /// isolation).
    Session,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Classify => "classify",
            Stage::Algorithm1 => "algorithm1",
            Stage::Algorithm2 => "algorithm2",
            Stage::ExactDp => "exact-dp",
            Stage::Heuristic => "heuristic",
            Stage::Enumeration => "enumeration",
            Stage::Session => "session",
        };
        f.write_str(s)
    }
}

/// Which budget knob tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline (limit/observed in milliseconds).
    WallClockMs,
    /// The exact-DP terminal-count cap (limit/observed in terminals).
    ExactTerminals,
    /// The exact-DP table-size cap (limit/observed in bytes).
    DpTableBytes,
    /// A node-count cap (the data-model layer's interpretation size
    /// caps report in this unit).
    Nodes,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BudgetKind::WallClockMs => "wall-clock ms",
            BudgetKind::ExactTerminals => "exact terminals",
            BudgetKind::DpTableBytes => "DP table bytes",
            BudgetKind::Nodes => "nodes",
        };
        f.write_str(s)
    }
}

/// A structured budget verdict: stage, knob, limit, observed consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The stage that was running when the budget tripped.
    pub stage: Stage,
    /// Which budget knob tripped.
    pub kind: BudgetKind,
    /// The configured limit, in the knob's unit.
    pub limit: u64,
    /// The observed (or projected) consumption that tripped it.
    pub observed: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exceeded in {}: {} {} > limit {}",
            self.stage, self.observed, self.kind, self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Declarative resource limits for one solve.
///
/// The default budget is production-lenient: no deadline and 256 MiB of
/// DP tables. [`SolveBudget::unbounded`] lifts both. Neither touches the
/// 24-terminal mask-width cap ([`HARD_MAX_EXACT_TERMINALS`]: a `u32`
/// mask cannot hold more).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveBudget {
    /// Wall-clock deadline for the whole solve (including degradation
    /// fallbacks — the ladder shares one clock). `None`: no deadline.
    pub wall_clock: Option<Duration>,
    /// Maximum bytes the exact DP may commit to its tables
    /// ([`dp_table_bytes`]: `2^(k−1)·n` entries of 12 bytes for `k`
    /// terminals on `n` nodes), *checked before allocating*.
    pub max_dp_bytes: u64,
}

/// The Dreyfus–Wagner mask width: more terminals than this cannot be
/// represented, whatever the budget says.
pub const HARD_MAX_EXACT_TERMINALS: usize = 24;

impl Default for SolveBudget {
    fn default() -> Self {
        SolveBudget {
            wall_clock: None,
            max_dp_bytes: 256 << 20,
        }
    }
}

impl SolveBudget {
    /// No limits beyond the hard 24-terminal DP cap. Used by the legacy
    /// (panicking/`Option`) entry points.
    pub fn unbounded() -> Self {
        SolveBudget {
            wall_clock: None,
            max_dp_bytes: u64::MAX,
        }
    }

    /// The default budget with a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        SolveBudget {
            wall_clock: Some(deadline),
            ..SolveBudget::default()
        }
    }

    /// Starts the clock: a token to thread through the solve's hot loops.
    pub fn start(&self) -> CancelToken {
        CancelToken::new(self.wall_clock)
    }

    /// Admission check for the exact DP: the mask-width cap and the
    /// projected table footprint, *before* anything is allocated.
    pub fn admit_exact_dp(&self, k: usize, n: usize) -> Result<(), BudgetExceeded> {
        if k > HARD_MAX_EXACT_TERMINALS {
            return Err(BudgetExceeded {
                stage: Stage::ExactDp,
                kind: BudgetKind::ExactTerminals,
                limit: HARD_MAX_EXACT_TERMINALS as u64,
                observed: k as u64,
            });
        }
        let projected = dp_table_bytes(k, n);
        if projected > self.max_dp_bytes {
            return Err(BudgetExceeded {
                stage: Stage::ExactDp,
                kind: BudgetKind::DpTableBytes,
                limit: self.max_dp_bytes,
                observed: projected,
            });
        }
        Ok(())
    }
}

/// Memory footprint of the Dreyfus–Wagner tables for `k` terminals on
/// `n` nodes, exactly what the DP allocates: rooted at one terminal, it
/// keeps `2^(k−1)` rows of `n` entries, each a `u64` value and a `u32`
/// back-pointer (12 bytes). With fewer than two terminals the DP answers
/// without tables.
pub fn dp_table_bytes(k: usize, n: usize) -> u64 {
    if k < 2 {
        return 0;
    }
    let rows = 1u64.checked_shl(k as u32 - 1).unwrap_or(u64::MAX);
    rows.saturating_mul(n as u64).saturating_mul(12)
}

/// A cooperative cancellation handle.
///
/// The hot loops call [`CancelToken::tick`] with a weight approximating
/// the work done since the last call (in node-visit units). Ticks burn
/// "fuel" — a plain [`Cell`] decrement, no atomics, no allocation — and
/// only when [`TICK_PERIOD`] units have been burned is the wall clock
/// consulted. Tokens with no deadline never read the clock after
/// construction, so the unbudgeted paths pay only the decrement.
#[derive(Debug)]
pub struct CancelToken {
    started: Instant,
    deadline: Option<Instant>,
    deadline_ms: u64,
    fuel: Cell<u64>,
    checks: Cell<u64>,
}

impl CancelToken {
    #[expect(
        clippy::disallowed_methods,
        reason = "the deadline clock is this layer's whole job"
    )]
    fn new(wall_clock: Option<Duration>) -> Self {
        let started = Instant::now();
        CancelToken {
            started,
            deadline: wall_clock.map(|d| started + d),
            deadline_ms: wall_clock.map_or(0, |d| d.as_millis() as u64),
            fuel: Cell::new(TICK_PERIOD),
            checks: Cell::new(0),
        }
    }

    /// A token that never cancels (the legacy entry points use it).
    pub fn unbounded() -> Self {
        CancelToken::new(None)
    }

    /// Burns `weight` units of fuel; consults the deadline only when
    /// [`TICK_PERIOD`] units have been burned since the last check.
    #[inline]
    pub fn tick(&self, stage: Stage, weight: u64) -> Result<(), BudgetExceeded> {
        let fuel = self.fuel.get();
        if fuel > weight {
            self.fuel.set(fuel - weight);
            return Ok(());
        }
        self.fuel.set(TICK_PERIOD);
        self.checkpoint(stage)
    }

    /// Unconditionally checks the deadline (used at stage boundaries).
    #[expect(
        clippy::disallowed_methods,
        reason = "the deadline check is the one per-tick wall-clock read"
    )]
    pub fn checkpoint(&self, stage: Stage) -> Result<(), BudgetExceeded> {
        self.checks.set(self.checks.get() + 1);
        match self.deadline {
            Some(deadline) if Instant::now() > deadline => Err(BudgetExceeded {
                stage,
                kind: BudgetKind::WallClockMs,
                limit: self.deadline_ms,
                observed: self.elapsed().as_millis() as u64,
            }),
            _ => Ok(()),
        }
    }

    /// Wall-clock time since the token was started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Number of deadline consultations so far (a measure of cooperative
    /// check traffic, surfaced in `SolveStats`).
    pub fn checks(&self) -> u64 {
        self.checks.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_never_cancels() {
        let t = CancelToken::unbounded();
        for _ in 0..10 {
            assert!(t.tick(Stage::Algorithm2, TICK_PERIOD).is_ok());
        }
        assert!(t.checkpoint(Stage::Algorithm2).is_ok());
        assert!(t.checks() >= 10);
    }

    #[test]
    fn expired_deadline_cancels_on_checkpoint() {
        let b = SolveBudget::with_deadline(Duration::ZERO);
        let t = b.start();
        std::thread::sleep(Duration::from_millis(2));
        let e = t.checkpoint(Stage::ExactDp).unwrap_err();
        assert_eq!(e.stage, Stage::ExactDp);
        assert_eq!(e.kind, BudgetKind::WallClockMs);
        assert!(e.observed >= e.limit);
    }

    #[test]
    fn ticks_are_fuel_gated() {
        let b = SolveBudget::with_deadline(Duration::ZERO);
        let t = b.start();
        std::thread::sleep(Duration::from_millis(2));
        // Small ticks don't reach the clock until the period is burned.
        let mut tripped = false;
        for _ in 0..(TICK_PERIOD + 1) {
            if t.tick(Stage::Heuristic, 1).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline must be noticed within one period");
    }

    #[test]
    fn exact_dp_admission_gates_terminals_and_bytes() {
        let b = SolveBudget::default();
        assert!(b.admit_exact_dp(10, 100).is_ok());
        let e = b.admit_exact_dp(25, 100).unwrap_err();
        assert_eq!(e.kind, BudgetKind::ExactTerminals);
        // 24 terminals on 2000 nodes: 2^24 * 2000 * 8 bytes ≫ 256 MiB.
        let e = b.admit_exact_dp(24, 2000).unwrap_err();
        assert_eq!(e.kind, BudgetKind::DpTableBytes);
        assert!(e.observed > e.limit);
    }

    #[test]
    fn dp_bytes_charge_the_rooted_tables_exactly() {
        // 2^(k−1) rows of n entries, 8 value bytes + 4 back-pointer bytes.
        assert_eq!(dp_table_bytes(2, 10), 2 * 10 * 12);
        assert_eq!(dp_table_bytes(7, 92), 64 * 92 * 12);
        assert_eq!(dp_table_bytes(24, 30), (1 << 23) * 30 * 12);
        // No tables below two terminals, and no n² term at any size.
        assert_eq!(dp_table_bytes(0, 1000), 0);
        assert_eq!(dp_table_bytes(1, 1000), 0);
        assert_eq!(dp_table_bytes(3, 100_000), 4 * 100_000 * 12);
    }

    #[test]
    fn seven_terminals_on_ninety_two_nodes_fit_a_150_kb_cap() {
        let b = SolveBudget {
            max_dp_bytes: 150_000,
            ..SolveBudget::default()
        };
        assert!(b.admit_exact_dp(7, 92).is_ok());
    }

    #[test]
    fn dp_bytes_projection_saturates() {
        assert!(
            dp_table_bytes(24, usize::MAX) == u64::MAX || dp_table_bytes(24, 1 << 40) > 1 << 60
        );
        assert_eq!(dp_table_bytes(0, 0), 0);
    }

    #[test]
    fn display_is_informative() {
        let e = BudgetExceeded {
            stage: Stage::ExactDp,
            kind: BudgetKind::DpTableBytes,
            limit: 100,
            observed: 200,
        };
        let s = e.to_string();
        assert!(
            s.contains("exact-dp") && s.contains("DP table bytes"),
            "{s}"
        );
    }
}
