//! The workspace rule catalog: the interprocedural concurrency rules
//! from [`crate::propagate`].
//!
//! [`RULES`] is the single source of truth — [`crate::run`] iterates it
//! directly, and `--list-rules` and the SARIF rule table render from it,
//! so a rule cannot exist without being wired (and vice versa).
//!
//! Scoping conventions shared by the rules:
//!
//! * test code (`#[cfg(test)]` / `#[test]` regions) and binary targets
//!   (`src/bin/**`, `src/main.rs`) are excluded from the call graph
//!   entirely;
//! * every rule honors the inline `// lint:allow(<rule>)` escape hatch on
//!   the offending line or the comment block directly above it.

use crate::propagate;
use crate::{Diagnostic, Workspace};

/// One registered rule.
pub struct Rule {
    /// Stable rule name (diagnostic tag, `lint:allow` key, SARIF ruleId).
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// The check, run once over the resolved workspace (facts + call
    /// graph).
    pub check: fn(&Workspace, &mut Vec<Diagnostic>),
}

/// Every rule, in execution order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "lock-order",
        desc: "the workspace lock-acquisition order graph is acyclic — any cycle \
               is reported as a potential deadlock with witness chains",
        check: propagate::lock_order,
    },
    Rule {
        name: "blocking-under-lock",
        desc: "no disk I/O or artifact classification reachable while a cache-slot \
               or store lock is held",
        check: propagate::blocking_under_lock,
    },
    Rule {
        name: "condvar-discipline",
        desc: "every Condvar::wait/wait_timeout sits inside a predicate loop \
               (spurious wakeups)",
        check: propagate::condvar_discipline,
    },
];
