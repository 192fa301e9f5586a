//! The unified solver-facing error taxonomy.
//!
//! The solver-facing cases — "terminals disconnected", "too large", "a
//! broken invariant" — are one structured type, [`SolveError`],
//! shared by every layer, with context: which [`Stage`] failed, which
//! budget tripped (via the embedded [`BudgetExceeded`]), and what an
//! internal inconsistency actually was instead of an `unreachable!`
//! abort.
//!
//! [`SolveOutcome`] is the standard result alias; [`Degraded`] records a
//! ladder downgrade (Exact → heuristic) on an otherwise successful
//! solution, so callers can distinguish "optimal" from "best-effort
//! under budget".

use mcc_graph::{BudgetExceeded, NodeSet, Stage};
use std::fmt;

/// Result alias for the solver entry points.
pub type SolveOutcome<T> = Result<T, SolveError>;

/// Everything a budgeted solve can report instead of an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The terminals do not lie in one connected component: no tree over
    /// them exists in any route.
    Disconnected,
    /// A resource budget tripped (deadline, DP size, terminal cap). The
    /// payload says which stage, which knob, and how much was consumed.
    Budget(BudgetExceeded),
    /// An internal invariant failed (e.g. a DP value with no witness
    /// during reconstruction). Surfaced as data instead of a panic so a
    /// solver bug degrades one query, not the process.
    Internal {
        /// The stage whose invariant broke.
        stage: Stage,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Disconnected => write!(f, "terminals cannot be connected"),
            SolveError::Budget(b) => write!(f, "{b}"),
            SolveError::Internal { stage, detail } => {
                write!(f, "internal solver error in {stage}: {detail}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<BudgetExceeded> for SolveError {
    fn from(b: BudgetExceeded) -> Self {
        SolveError::Budget(b)
    }
}

impl SolveError {
    /// The budget verdict, when this error is a budget trip.
    pub fn budget(&self) -> Option<&BudgetExceeded> {
        match self {
            SolveError::Budget(b) => Some(b),
            _ => None,
        }
    }
}

/// Refuses, as [`SolveError::Internal`] at `stage`, a terminal set over
/// another universe than the graph's `n` nodes. Every route runs it
/// before any work, so a wrong set never indexes past the graph.
pub(crate) fn check_terminal_universe(
    terminals: &NodeSet,
    n: usize,
    stage: Stage,
) -> SolveOutcome<()> {
    if terminals.capacity() == n {
        return Ok(());
    }
    Err(SolveError::Internal {
        stage,
        detail: format!(
            "terminal set over {} nodes for a graph of {n}",
            terminals.capacity()
        ),
    })
}

/// A downgrade record on an otherwise successful solution: the route the
/// solve *started* on and the budget verdict that forced the step down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degraded {
    /// The stage the solve was originally routed to (the guarantee that
    /// was given up).
    pub from: Stage,
    /// Why the ladder stepped down.
    pub reason: BudgetExceeded,
}

impl fmt::Display for Degraded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "degraded from {} ({})", self.from, self.reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_graph::BudgetKind;

    fn sample_budget() -> BudgetExceeded {
        BudgetExceeded {
            stage: Stage::ExactDp,
            kind: BudgetKind::DpTableBytes,
            limit: 1,
            observed: 2,
        }
    }

    #[test]
    fn conversions_and_accessors() {
        let e: SolveError = sample_budget().into();
        assert_eq!(e.budget().unwrap().kind, BudgetKind::DpTableBytes);
        assert!(SolveError::Disconnected.budget().is_none());
    }

    #[test]
    fn terminal_universe_check_names_the_stage() {
        let terminals = NodeSet::new(5);
        assert_eq!(
            check_terminal_universe(&terminals, 5, Stage::Heuristic),
            Ok(())
        );
        match check_terminal_universe(&terminals, 4, Stage::Heuristic) {
            Err(SolveError::Internal { stage, detail }) => {
                assert_eq!(stage, Stage::Heuristic);
                assert_eq!(detail, "terminal set over 5 nodes for a graph of 4");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn displays_carry_context() {
        let d = Degraded {
            from: Stage::ExactDp,
            reason: sample_budget(),
        };
        let s = d.to_string();
        assert!(s.contains("exact-dp"), "{s}");
        let e = SolveError::Internal {
            stage: Stage::Algorithm2,
            detail: "no witness".into(),
        };
        assert!(e.to_string().contains("algorithm2"));
    }
}
