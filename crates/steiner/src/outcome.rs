//! The unified solver-facing error taxonomy.
//!
//! The solver-facing cases — "terminals disconnected", "ordering does
//! not exist", "too large" — are one structured type, [`SolveError`],
//! shared by every layer, with context: which [`Stage`] failed, which
//! budget tripped (via the embedded [`BudgetExceeded`]), and what an
//! internal inconsistency actually was instead of an `unreachable!`
//! abort.
//!
//! [`SolveOutcome`] is the standard result alias; [`Degraded`] records a
//! ladder downgrade (Exact → heuristic) on an otherwise successful
//! solution, so callers can distinguish "optimal" from "best-effort
//! under budget".

use mcc_graph::{BudgetExceeded, Stage};
use std::fmt;

/// Result alias for the budgeted solver entry points.
pub type SolveOutcome<T> = Result<T, SolveError>;

/// Everything a budgeted solve can report instead of an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The terminals do not lie in one connected component: no tree over
    /// them exists in any route.
    Disconnected,
    /// Algorithm 1's precondition failed: the graph is not Vᵢ-chordal and
    /// Vᵢ-conformal on the minimized side (`H¹` for `V₂`, `H²` for `V₁`
    /// is not α-acyclic), so no Lemma 1 ordering exists and the
    /// optimality guarantee is void.
    NotAlphaAcyclic,
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
            SolveError::NotAlphaAcyclic => write!(
                f,
                "graph is not Vi-chordal/Vi-conformal on the minimized side (its hypergraph is not alpha-acyclic); no Lemma 1 ordering"
            ),
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

impl From<crate::Algorithm1Error> for SolveError {
    fn from(e: crate::Algorithm1Error) -> Self {
        match e {
            crate::Algorithm1Error::Infeasible => SolveError::Disconnected,
            crate::Algorithm1Error::NotAlphaAcyclic => SolveError::NotAlphaAcyclic,
        }
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

    /// `true` when stepping down the degradation ladder could still
    /// produce a best-effort answer (budget trips), `false` when no route
    /// can succeed (disconnection) or the solver itself is suspect.
    pub fn is_degradable(&self) -> bool {
        matches!(self, SolveError::Budget(_))
    }
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
        assert!(e.is_degradable());
        assert_eq!(e.budget().unwrap().kind, BudgetKind::DpTableBytes);
        let e: SolveError = crate::Algorithm1Error::Infeasible.into();
        assert_eq!(e, SolveError::Disconnected);
        assert!(!e.is_degradable());
        assert!(e.budget().is_none());
        let e: SolveError = crate::Algorithm1Error::NotAlphaAcyclic.into();
        assert_eq!(e, SolveError::NotAlphaAcyclic);
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
