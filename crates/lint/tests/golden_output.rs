//! Machine-readable output is a CI interface: these tests pin the JSON
//! and SARIF bytes for the fixture tree against checked-in golden files,
//! prove the writers are deterministic across runs, and self-host the
//! linter — the real workspace's `crates/lint` must come out clean
//! without a single `lint:allow` directive in its sources.
//!
//! Regenerate the goldens after an intentional format or fixture change:
//!
//! ```text
//! cargo run -p mcc-lint -- --root crates/lint/tests/fixtures \
//!     --format json  --output crates/lint/tests/golden/fixtures.json
//! cargo run -p mcc-lint -- --root crates/lint/tests/fixtures \
//!     --format sarif --output crates/lint/tests/golden/fixtures.sarif
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_lint::{report, run, Diagnostic};
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_tree(crates_dir: &Path) -> Vec<Diagnostic> {
    run(crates_dir).expect("crate tree is readable")
}

fn run_fixtures() -> Vec<Diagnostic> {
    run_tree(&manifest_dir().join("tests/fixtures/crates"))
}

/// The real workspace's `crates/` directory — `crates/lint` is two
/// levels below it, so the parent of this crate's manifest dir is it.
fn workspace_crates_dir() -> PathBuf {
    manifest_dir()
        .parent()
        .expect("crates/lint sits inside crates/")
        .to_path_buf()
}

#[test]
fn machine_reports_are_byte_deterministic_across_runs() {
    let first = run_fixtures();
    let second = run_fixtures();
    assert_eq!(
        report::to_json(&first),
        report::to_json(&second),
        "two runs over the same tree must serialize identically"
    );
    assert_eq!(report::to_sarif(&first), report::to_sarif(&second));
}

#[test]
fn json_output_matches_the_checked_in_golden() {
    let golden = std::fs::read_to_string(manifest_dir().join("tests/golden/fixtures.json"))
        .expect("golden JSON is checked in");
    assert_eq!(
        report::to_json(&run_fixtures()),
        golden,
        "JSON report drifted from tests/golden/fixtures.json — if the \
         change is intentional, regenerate the golden (command in the \
         module doc)"
    );
}

#[test]
fn sarif_output_matches_the_checked_in_golden() {
    let golden = std::fs::read_to_string(manifest_dir().join("tests/golden/fixtures.sarif"))
        .expect("golden SARIF is checked in");
    assert_eq!(
        report::to_sarif(&run_fixtures()),
        golden,
        "SARIF report drifted from tests/golden/fixtures.sarif — if the \
         change is intentional, regenerate the golden (command in the \
         module doc)"
    );
}

/// Self-hosting: the linter passes over its own crate with **zero**
/// allows — no diagnostic anchored under `crates/lint/`, and no
/// `lint:allow` directive anywhere in its sources (doc comments may
/// *mention* the directive; none may *be* one).
#[test]
fn lint_crate_self_hosts_with_zero_allows() {
    let diags = run_tree(&workspace_crates_dir());
    let own: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.file.starts_with("crates/lint/"))
        .collect();
    assert!(own.is_empty(), "mcc-lint flags its own sources: {own:?}");

    let src = manifest_dir().join("src");
    for entry in std::fs::read_dir(&src).expect("src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source is readable");
        for (i, line) in text.lines().enumerate() {
            assert!(
                !line.trim_start().starts_with("// lint:allow("),
                "{}:{}: crates/lint must self-host without escape hatches",
                path.display(),
                i + 1
            );
        }
    }
}

/// The deadlock detector's most important property on the real tree:
/// the workspace lock-acquisition graph is acyclic. A cycle here is a
/// potential deadlock and must be re-ordered, never waived.
#[test]
fn real_workspace_has_no_lock_order_cycles() {
    let diags = run_tree(&workspace_crates_dir());
    let cycles: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "lock-order").collect();
    assert!(
        cycles.is_empty(),
        "lock-order cycle in the real workspace: {cycles:?}"
    );
}
