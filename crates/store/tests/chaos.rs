//! The chaos suite: every fault the store defends against, injected
//! deterministically through the [`FaultPlan`] seam, with one invariant
//! checked after every scenario — a (re)opened store serves
//! **byte-identical artifacts or a clean miss, never garbage**.
//!
//! The plan is installed process-globally once (write-once, like the
//! obs `TestClock`); each test arms its own scope keyed by its private
//! temp root, so the scenarios run in parallel without interfering.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc::prelude::*;
use mcc::SchemaArtifacts;
use mcc_store::{
    encode, install_fault_plan, ArtifactStore, FaultKind, FaultOp, FaultPlan, Trigger,
};
use std::path::{Path, PathBuf};

static PLAN: FaultPlan = FaultPlan::new();

/// Installs the shared plan (first caller wins; the rest reuse it) and
/// returns a fresh, empty per-test root.
fn chaos_root(name: &str) -> PathBuf {
    let _ = install_fault_plan(&PLAN);
    let root = std::env::temp_dir().join(format!("mcc-store-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn schema_a() -> RelationalSchema {
    RelationalSchema::from_lists(
        "hr",
        &["emp", "dept", "budget"],
        &[("WORKS_IN", &[0, 1]), ("FUNDING", &[1, 2])],
    )
}

fn schema_b() -> RelationalSchema {
    RelationalSchema::from_lists(
        "inventory",
        &["item", "bin", "site", "owner"],
        &[
            ("STORED", &[0, 1]),
            ("LOCATED", &[1, 2]),
            ("LEASED", &[2, 3]),
        ],
    )
}

fn artifacts_of(schema: &RelationalSchema) -> (u64, SchemaArtifacts) {
    let bg = schema.to_bipartite().expect("valid fixture schema");
    (schema.fingerprint(), SchemaArtifacts::build(bg))
}

/// The suite's core invariant: a load either misses cleanly or returns
/// a bundle whose canonical encoding is byte-identical to the original.
fn assert_served_or_clean_miss(
    store: &ArtifactStore,
    key: u64,
    original: &SchemaArtifacts,
) -> bool {
    match store.load(key) {
        None => false,
        Some(loaded) => {
            assert_eq!(
                encode(key, &loaded),
                encode(key, original),
                "store served a bundle that is not byte-identical to what was written"
            );
            true
        }
    }
}

/// Names of the temp files currently in `root`'s objects directory.
fn tmp_files(root: &Path) -> Vec<String> {
    std::fs::read_dir(root.join("objects"))
        .expect("objects dir exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".tmp"))
        .collect()
}

fn no_stale_tmp(root: &Path) {
    let objects = root.join("objects");
    for entry in std::fs::read_dir(objects).expect("objects dir exists") {
        let name = entry.expect("dir entry").file_name();
        assert!(
            !name.to_string_lossy().ends_with(".tmp"),
            "stale temp file survived recovery: {name:?}"
        );
    }
}

#[test]
fn silent_short_write_is_quarantined_not_served() {
    let root = chaos_root("short-write");
    let (key, artifacts) = artifacts_of(&schema_a());
    // The disk persists half the blob but reports success — only load-time
    // CRC validation can catch this.
    PLAN.arm(
        &root,
        vec![Trigger::first(
            FaultOp::CreateAndWrite,
            FaultKind::ShortWrite(40),
        )],
    );
    let store = ArtifactStore::open(&root);
    assert!(
        store.store(key, &artifacts),
        "the lying write reports success"
    );

    assert!(!assert_served_or_clean_miss(&store, key, &artifacts));
    let stats = store.stats();
    assert_eq!(stats.quarantined, 1, "the torn blob must be quarantined");
    assert!(!stats.degraded, "validation failure is not an I/O failure");
    // The corpse is preserved for forensics, out of the serving path.
    assert!(root
        .join("quarantine")
        .join(format!("{key:016x}.mcca"))
        .exists());
    assert!(!store.contains(key));
    // A rewrite through a healthy disk heals the entry.
    assert!(store.store(key, &artifacts));
    assert!(assert_served_or_clean_miss(&store, key, &artifacts));
    PLAN.disarm(&root);
}

#[test]
fn persisted_bit_rot_is_quarantined_on_reopen() {
    let root = chaos_root("bit-rot");
    let (key, artifacts) = artifacts_of(&schema_b());
    PLAN.arm(
        &root,
        vec![Trigger::first(
            FaultOp::CreateAndWrite,
            FaultKind::FlipByte(97),
        )],
    );
    ArtifactStore::open(&root).store(key, &artifacts);
    PLAN.disarm(&root);

    // A different process opens the store later and hits the rot.
    let reopened = ArtifactStore::open(&root);
    assert!(!assert_served_or_clean_miss(&reopened, key, &artifacts));
    assert_eq!(reopened.stats().quarantined, 1);
    assert_eq!(reopened.stats().hits, 0);
}

#[test]
fn transient_errors_are_retried_to_success() {
    let root = chaos_root("transient");
    let (key, artifacts) = artifacts_of(&schema_a());
    // One Interrupted on the data write and one on the fsync: both are
    // inside the bounded-retry budget, so the store succeeds end-to-end.
    PLAN.arm(
        &root,
        vec![
            Trigger::first(FaultOp::CreateAndWrite, FaultKind::Transient),
            Trigger::first(FaultOp::SyncFile, FaultKind::Transient),
            Trigger::first(FaultOp::Read, FaultKind::Transient),
        ],
    );
    let store = ArtifactStore::open(&root);
    assert!(store.store(key, &artifacts));
    assert!(assert_served_or_clean_miss(&store, key, &artifacts));
    let stats = store.stats();
    assert!(!stats.degraded);
    assert_eq!((stats.hits, stats.quarantined), (1, 0));
    assert_eq!(PLAN.fired(&root), 3, "all three transients were exercised");
    PLAN.disarm(&root);
}

#[test]
fn eio_on_fsync_degrades_to_memory_only() {
    let root = chaos_root("eio-fsync");
    let (key, artifacts) = artifacts_of(&schema_a());
    PLAN.arm(
        &root,
        vec![Trigger::first(FaultOp::SyncFile, FaultKind::Eio)],
    );
    let store = ArtifactStore::open(&root);
    assert!(
        !store.store(key, &artifacts),
        "a hard fsync error fails the write"
    );
    assert!(
        store.is_degraded(),
        "hard errors flip the store to memory-only"
    );
    // Degraded mode short-circuits all disk traffic — no more faults fire.
    assert!(!store.store(key, &artifacts));
    assert!(store.load(key).is_none());
    assert!(!store.contains(key));
    assert_eq!(PLAN.fired(&root), 1);
    PLAN.disarm(&root);

    // Degradation is per-lifetime: a reopened store trusts the disk
    // again and works normally.
    let reopened = ArtifactStore::open(&root);
    assert!(!reopened.is_degraded());
    assert!(reopened.store(key, &artifacts));
    assert!(assert_served_or_clean_miss(&reopened, key, &artifacts));
    no_stale_tmp(&root);
}

#[test]
fn kill_points_between_every_write_step_never_serve_garbage() {
    // A durably stored first bundle must survive a crash at *any* step
    // of a later write; the in-flight bundle is served byte-identical
    // or cleanly missed — and recovery leaves no temp files behind.
    for (i, op) in [
        FaultOp::CreateAndWrite,
        FaultOp::SyncFile,
        FaultOp::Rename,
        FaultOp::SyncDir,
    ]
    .into_iter()
    .enumerate()
    {
        let root = chaos_root(&format!("kill-{i}"));
        let (key_a, artifacts_a) = artifacts_of(&schema_a());
        let (key_b, artifacts_b) = artifacts_of(&schema_b());

        let store = ArtifactStore::open(&root);
        assert!(
            store.store(key_a, &artifacts_a),
            "first bundle lands durably"
        );

        PLAN.arm(&root, vec![Trigger::first(op, FaultKind::Kill)]);
        assert!(
            !store.store(key_b, &artifacts_b),
            "the process 'dies' at {op:?}"
        );
        assert!(!store.is_degraded(), "a crash is not a disk failure");
        assert_eq!(PLAN.fired(&root), 1);
        PLAN.disarm(&root);
        drop(store);

        // The "next process": self-heals on open, serves A byte-identical,
        // and either serves B byte-identical or misses cleanly.
        let reopened = ArtifactStore::open(&root);
        assert!(
            assert_served_or_clean_miss(&reopened, key_a, &artifacts_a),
            "the durable bundle must survive a crash at {op:?}"
        );
        let b_served = assert_served_or_clean_miss(&reopened, key_b, &artifacts_b);
        // Dying at (or before) the rename step cannot have published B —
        // the kill preempts the primitive itself; dying after it (at the
        // directory sync) leaves the complete, renamed object.
        match op {
            FaultOp::SyncDir => {
                assert!(
                    b_served,
                    "B was renamed into place before the crash at {op:?}"
                )
            }
            _ => assert!(!b_served, "B cannot be visible before its rename completes"),
        }
        no_stale_tmp(&root);
        assert_eq!(reopened.stats().quarantined, 0);
    }
}

#[test]
fn torn_rename_leaves_a_duplicate_that_recovery_sweeps() {
    let root = chaos_root("torn-rename");
    let (key, artifacts) = artifacts_of(&schema_b());
    PLAN.arm(
        &root,
        vec![Trigger::first(FaultOp::Rename, FaultKind::TornRename)],
    );
    let store = ArtifactStore::open(&root);
    assert!(store.store(key, &artifacts));
    PLAN.disarm(&root);
    // The torn rename left both names on disk: the object and a temp
    // file of the same key.
    assert!(root
        .join("objects")
        .join(format!("{key:016x}.mcca"))
        .exists());
    assert_eq!(tmp_files(&root).len(), 1);
    assert!(tmp_files(&root)[0].starts_with(&format!("{key:016x}.mcca.")));

    let reopened = ArtifactStore::open(&root);
    assert!(assert_served_or_clean_miss(&reopened, key, &artifacts));
    no_stale_tmp(&root);
}

#[test]
fn reads_hitting_a_dead_disk_degrade_and_miss_cleanly() {
    let root = chaos_root("read-eio");
    let (key, artifacts) = artifacts_of(&schema_a());
    {
        let store = ArtifactStore::open(&root);
        assert!(store.store(key, &artifacts));
    }
    PLAN.arm(&root, vec![Trigger::first(FaultOp::Read, FaultKind::Eio)]);
    let store = ArtifactStore::open(&root);
    assert!(
        store.load(key).is_none(),
        "a dead disk is a miss, not garbage"
    );
    assert!(store.is_degraded());
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.quarantined), (0, 1, 0));
    PLAN.disarm(&root);
}

/// Regression: concurrent write-throughs of one schema (two engine
/// workers rebuilding the same slot) once shared one temp path, so the
/// loser's rename failed and degraded the whole store to memory-only.
/// Every write now has a temp file of its own.
#[test]
fn concurrent_writes_of_one_key_never_collide() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    let root = chaos_root("concurrent-writes");
    let (key, artifacts) = artifacts_of(&schema_b());
    let store = ArtifactStore::open(&root);
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    assert!(store.store(key, &artifacts), "a write-through failed");
                }
            });
        }
    });
    assert!(!store.is_degraded(), "concurrent writes degraded the store");
    assert_eq!(store.stats().stores, (THREADS * ROUNDS) as u64);
    assert!(tmp_files(&root).is_empty(), "a write left its temp file");
    assert!(assert_served_or_clean_miss(&store, key, &artifacts));
    assert!(assert_served_or_clean_miss(
        &ArtifactStore::open(&root),
        key,
        &artifacts
    ));
}
