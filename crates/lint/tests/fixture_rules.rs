//! End-to-end fixture tests: a tree of deliberately seeded rule
//! violations under `tests/fixtures/crates/` (never compiled by cargo,
//! never scanned by the real pass) must be reported with exact
//! `file:line` locations, and every exemption — `lint:allow` on a site
//! or on a call line, predicate loops — must produce *no* diagnostic.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_lint::{run, Diagnostic};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn run_fixtures() -> Vec<Diagnostic> {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/crates");
    run(&fixtures).expect("fixture tree is readable")
}

#[test]
fn seeded_violations_are_reported_with_exact_locations() {
    let diags = run_fixtures();
    let got: Vec<(&str, usize, &str)> = diags
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    // One entry per seeded violation — anything beyond this list would
    // mean an exemption (lint:allow, predicate loop) failed to suppress.
    let expected = vec![
        ("crates/locks/src/lib.rs", 19, "lock-order"),
        ("crates/locks/src/lib.rs", 40, "condvar-discipline"),
        ("crates/locks/src/lib.rs", 59, "blocking-under-lock"),
        ("crates/locks/src/lib.rs", 66, "blocking-under-lock"),
    ];
    assert_eq!(got, expected);
}

#[test]
fn every_rule_fires_on_the_fixture_tree() {
    // Each rule's check tags its diagnostics with a name by hand; this
    // pins those names to the RULES registry in both directions. A
    // registered rule with no seeded violation means its check stopped
    // firing (or the fixture is missing); a diagnostic whose rule is not
    // registered means a check emits a name that --list-rules and the
    // SARIF rules table don't know about.
    let diags = run_fixtures();
    let fired: BTreeSet<&str> = diags.iter().map(|d| d.rule).collect();
    for rule in mcc_lint::rules::RULES {
        assert!(
            fired.contains(rule.name),
            "rule `{}` has no seeded fixture violation",
            rule.name
        );
    }
    let registered: BTreeSet<&str> = mcc_lint::rules::RULES.iter().map(|r| r.name).collect();
    for rule in fired {
        assert!(
            registered.contains(rule),
            "run() emitted unregistered rule `{rule}`"
        );
    }
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let diags = run_fixtures();
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered
            .iter()
            .any(|s| s.starts_with("crates/locks/src/lib.rs:40: [condvar-discipline]")),
        "diagnostic rendering drifted: {rendered:?}"
    );
}

#[test]
fn lock_order_cycle_reports_both_witness_chains() {
    let diags = run_fixtures();
    let cycle = diags
        .iter()
        .find(|d| d.rule == "lock-order")
        .expect("seeded ab/ba cycle");
    assert!(
        cycle.message.contains(
            "lock-order cycle (potential deadlock): `locks::a` → `locks::b` → `locks::a`"
        ),
        "cycle summary drifted: {}",
        cycle.message
    );
    assert!(
        cycle.message.contains(
            "witness `locks::a` → `locks::b`: `Pair::ab` acquires `locks::a` \
             (crates/locks/src/lib.rs:19) then `locks::b` (crates/locks/src/lib.rs:20)"
        ),
        "first witness missing: {}",
        cycle.message
    );
    assert!(
        cycle.message.contains(
            "witness `locks::b` → `locks::a`: `Pair::ba` acquires `locks::b` \
             (crates/locks/src/lib.rs:25) then `locks::a` (crates/locks/src/lib.rs:26)"
        ),
        "second witness missing: {}",
        cycle.message
    );
}

#[test]
fn transitive_blocking_under_lock_chains_to_the_io_leaf() {
    let diags = run_fixtures();
    let trans = diags
        .iter()
        .find(|d| d.rule == "blocking-under-lock" && d.line == 66)
        .expect("seeded transitive blocking violation");
    assert!(
        trans
            .message
            .contains("`write_blob` — `fs::write` (crates/locks/src/lib.rs:71)"),
        "call path to the I/O leaf missing: {}",
        trans.message
    );
}
