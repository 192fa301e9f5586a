//! `mcc interpret` end to end: the enumeration cap surfaces as an error
//! message and a failing exit status, never as a panic, and a small
//! schema still lists its ranked readings.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `text` to a schema file under the test's scratch directory.
fn schema_file(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    path
}

fn interpret(schema: &PathBuf, objects: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcc"))
        .arg("interpret")
        .arg(schema)
        .args(objects)
        .output()
        .unwrap()
}

#[test]
fn oversized_schema_reports_the_cap_without_panicking() {
    // A chain of 10 binary relations over 11 attributes: 21 objects, one
    // over `MAX_TREE_ENUM_NODES`.
    let mut text = String::from("schema chain\n");
    for i in 0..10 {
        text.push_str(&format!("R{i}(a{i}, a{})\n", i + 1));
    }
    let out = interpret(&schema_file("chain21.mcc", &text), &["a0", "a10"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("budget exceeded in enumeration: 21 nodes > limit 20"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn demo_sized_schema_lists_its_readings() {
    let schema = schema_file(
        "university.mcc",
        "schema university\n\
         ENROLLED(student, course, grade)\n\
         TEACHES(course, lecturer)\n\
         LOCATED(lecturer, room)\n",
    );
    let out = interpret(&schema, &["student", "room"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("interpretations of [\"student\", \"room\"]"));
    assert!(
        stdout.contains("  1. 7 objects (5 auxiliary): "),
        "{stdout}"
    );
}
