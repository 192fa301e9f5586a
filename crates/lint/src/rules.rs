//! The workspace rule catalog: per-file lexical rules plus the
//! interprocedural workspace rules from [`crate::propagate`].
//!
//! [`RULES`] is the single source of truth — [`crate::run`] iterates it
//! directly, `--list-rules`, `--allow` validation, and the SARIF rule
//! table all render from it, so a rule cannot exist without being wired
//! (and vice versa).
//!
//! Scoping conventions shared by the rules:
//!
//! * "library code" excludes binary targets (`src/bin/**`, `src/main.rs`)
//!   — binaries are allowed to be chattier;
//! * test code (`#[cfg(test)]` / `#[test]` regions) is exempt from the
//!   panic and allocation rules — tests *should* unwrap — and is
//!   excluded from the call graph entirely;
//! * every rule honors the inline `// lint:allow(<rule>)` escape hatch on
//!   the offending line or the comment block directly above it.

use crate::lexer::Analysis;
use crate::propagate;
use crate::{Diagnostic, FileCtx, Workspace};

/// How a rule runs: over each file independently, or once over the
/// resolved workspace (facts + call graph).
pub enum RuleKind {
    /// Per-file lexical rule.
    File(fn(&FileCtx, &Analysis, &mut Vec<Diagnostic>)),
    /// Workspace-scoped interprocedural rule.
    Workspace(fn(&Workspace, &mut Vec<Diagnostic>)),
}

/// One registered rule.
pub struct Rule {
    /// Stable rule name (diagnostic tag, `--allow` key, SARIF ruleId).
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// Execution shape.
    pub kind: RuleKind,
}

/// Every rule, in execution order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-panic",
        desc: "no unwrap()/expect()/panic!/unreachable! reachable from public \
               library code without a // PROVABLY: justification (transitive)",
        kind: RuleKind::Workspace(propagate::no_panic),
    },
    Rule {
        name: "hot-path-alloc",
        desc: "no Vec::new/Box::new/to_vec/collect reachable from *_in functions \
               (zero-alloc hot-path convention, transitive)",
        kind: RuleKind::Workspace(propagate::hot_path_alloc),
    },
    Rule {
        name: "hot-path-adjacency",
        desc: "no .has_edge()/.adjacent_to_set() inside *_in functions — use the \
               word-parallel has_edge_fast/adjacent_to_set_into forms",
        kind: RuleKind::File(hot_path_adjacency),
    },
    Rule {
        name: "lock-order",
        desc: "the workspace lock-acquisition order graph is acyclic — any cycle \
               is reported as a potential deadlock with witness chains",
        kind: RuleKind::Workspace(propagate::lock_order),
    },
    Rule {
        name: "blocking-under-lock",
        desc: "no disk I/O or artifact classification reachable while a cache-slot \
               or store lock is held",
        kind: RuleKind::Workspace(propagate::blocking_under_lock),
    },
    Rule {
        name: "condvar-discipline",
        desc: "every Condvar::wait/wait_timeout sits inside a predicate loop \
               (spurious wakeups)",
        kind: RuleKind::Workspace(propagate::condvar_discipline),
    },
];

/// Rule: inside `*_in` hot paths the slow adjacency entry points are
/// forbidden — `.has_edge()` has the O(1) word-probe `has_edge_fast()`
/// and `.adjacent_to_set()` has the allocation-free, word-parallel
/// `adjacent_to_set_into()`. The graph crate itself is exempt: it
/// implements both forms (the fast ones fall back to the slow ones on
/// sparse rows by design).
pub fn hot_path_adjacency(ctx: &FileCtx, a: &Analysis, out: &mut Vec<Diagnostic>) {
    if ctx.is_binary || ctx.crate_name == "graph" {
        return;
    }
    let toks = &a.tokens;
    // `*_in`-function tracking: brace depth plus a pending-signature
    // flag (a `;` at signature level cancels a bodyless trait method).
    let mut stack: Vec<(bool, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut pending: Option<bool> = None;
    let mut sig_depth = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "fn" => {
                if let Some(name) = toks.get(i + 1) {
                    pending = Some(name.text.ends_with("_in"));
                    sig_depth = 0;
                }
            }
            "(" | "[" if pending.is_some() => sig_depth += 1,
            ")" | "]" if pending.is_some() => sig_depth = sig_depth.saturating_sub(1),
            ";" if sig_depth == 0 => pending = None,
            "{" => {
                depth += 1;
                if let Some(hot) = pending.take() {
                    stack.push((hot, depth));
                }
            }
            "}" => {
                if stack.last().is_some_and(|s| s.1 == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        if !stack.iter().any(|s| s.0) || a.is_test_line(t.line) {
            continue;
        }
        // Method calls only: `.has_edge(` / `.adjacent_to_set(`.
        let fast = match t.text.as_str() {
            "has_edge" => "has_edge_fast",
            "adjacent_to_set" => "adjacent_to_set_into",
            _ => continue,
        };
        let is_call = i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(");
        if is_call && !a.allowed_at(t.line, "hot-path-adjacency") {
            out.push(ctx.diag(
                t.line,
                "hot-path-adjacency",
                &format!(
                    "`.{}()` inside a `*_in` hot path — use the word-parallel `{fast}`",
                    t.text
                ),
            ));
        }
    }
}
