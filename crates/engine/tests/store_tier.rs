//! The engine-facing contract of the disk tier: warm starts skip
//! reclassification, degradation is invisible to serving, and — the
//! regression this file exists for — a generation bump (invalidate /
//! replace) racing a burst of `submit`s can never cause a stale-generation
//! bundle to be served *from disk* for the new generation.

use mcc_datamodel::RelationalSchema;
use mcc_engine::{ArtifactStore, Engine, EngineConfig, QueryRequest, SchemaArtifactCache};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn test_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("mcc-store-tier-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// `emp – WORKS_IN – dept – FUNDING – budget`: connecting emp↔budget
/// costs 5 nodes.
fn schema_v1() -> RelationalSchema {
    RelationalSchema::from_lists(
        "hr",
        &["emp", "dept", "budget"],
        &[("WORKS_IN", &[0, 1]), ("FUNDING", &[1, 2])],
    )
}

/// Same object names, different shape: a single relation covers all
/// three attributes, so emp↔budget costs 3 nodes (emp – STAFFING –
/// budget). The cost difference is the version fingerprint the
/// regression test reads off each answer.
fn schema_v2() -> RelationalSchema {
    RelationalSchema::from_lists(
        "hr",
        &["emp", "dept", "budget"],
        &[("STAFFING", &[0, 1, 2])],
    )
}

#[test]
fn warm_start_serves_from_disk_without_reclassifying() {
    let root = test_root("warm-start");

    // First process: cold build, written through to disk.
    {
        let store = Arc::new(ArtifactStore::open(&root));
        let cache = SchemaArtifactCache::with_store(Arc::clone(&store));
        cache.register(schema_v1()).expect("cold registration");
        let stats = store.stats();
        assert_eq!(
            (stats.hits, stats.stores),
            (0, 1),
            "cold start writes through"
        );
    }

    // Second process (same root): the registration is served from disk.
    let store = Arc::new(ArtifactStore::open(&root));
    let cache = SchemaArtifactCache::with_store(Arc::clone(&store));
    let engine = Engine::with_cache(EngineConfig::default(), Arc::new(cache));
    let id = engine.register(schema_v1()).expect("warm registration");
    let ticket = engine
        .submit(QueryRequest::steiner(id, &["emp", "budget"]))
        .expect("admitted");
    assert_eq!(ticket.wait().expect("served").cost, 5);

    let stats = engine.shutdown();
    assert_eq!(stats.store_hits, 1, "the disk tier served the bundle");
    assert_eq!(stats.store_misses, 0);
    assert!(!stats.store_degraded);
    // The slot itself was still cold — the miss is counted, but it was
    // answered by decode + validate, not by a classification pass.
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn invalidate_forces_a_real_rebuild_not_a_disk_echo() {
    let root = test_root("invalidate-rebuild");
    let store = Arc::new(ArtifactStore::open(&root));
    let cache = SchemaArtifactCache::with_store(Arc::clone(&store));
    let id = cache.register(schema_v1()).expect("register");
    let key = schema_v1().fingerprint();
    assert!(store.contains(key), "write-through on registration");

    assert!(cache.invalidate(id));
    assert!(
        !store.contains(key),
        "invalidate must evict the disk object, or the 'forced rebuild' would be \
         silently answered by the disk tier"
    );
    let got = cache.artifacts(id).expect("rebuild");
    assert_eq!(got.generation, 1);
    assert!(store.contains(key), "the rebuild writes through again");
    let stats = store.stats();
    assert_eq!(
        stats.hits, 0,
        "nothing was ever served from disk in this test"
    );
}

#[test]
fn replace_retargets_the_disk_key() {
    let root = test_root("replace-retarget");
    let store = Arc::new(ArtifactStore::open(&root));
    let cache = SchemaArtifactCache::with_store(Arc::clone(&store));
    let id = cache.register(schema_v1()).expect("register");

    cache.replace(id, schema_v2()).expect("replace");
    let got = cache.artifacts(id).expect("rebuild for generation 1");
    assert_eq!(got.generation, 1);
    // The rebuilt bundle is v2's (one 3-ary relation → 4 nodes), keyed
    // on disk under v2's fingerprint; v1's old object is unreachable
    // from this slot (content-addressed, still valid for v1 itself).
    assert_eq!(got.artifacts.bipartite().graph().node_count(), 4);
    assert!(store.contains(schema_v2().fingerprint()));
}

#[test]
fn degraded_store_keeps_the_memory_tier_serving() {
    // Point the store at an unwritable root (a *file*, so creating the
    // directories fails): it opens straight into degraded memory-only
    // mode and the cache must not care.
    let root = test_root("degraded");
    std::fs::create_dir_all(root.parent().expect("tmp parent")).expect("tmp exists");
    std::fs::write(&root, b"not a directory").expect("occupy the root path");

    let store = Arc::new(ArtifactStore::open(&root));
    assert!(store.is_degraded(), "an unusable root degrades at open");
    let cache = SchemaArtifactCache::with_store(Arc::clone(&store));
    let id = cache
        .register(schema_v1())
        .expect("registration survives a dead disk");
    let got = cache.artifacts(id).expect("memory tier serves");
    assert!(got.artifacts.classification().six_two);
    assert!(cache.store_stats().degraded);
    // Invalidation (disk removal is a no-op in degraded mode) and
    // rebuild keep working.
    assert!(cache.invalidate(id));
    assert!(cache.artifacts(id).is_ok());
    let _ = std::fs::remove_file(&root);
}

/// The regression: hammer `submit` with bursts of requests while another
/// thread flips the schema back and forth with `replace`. Every answer
/// must be consistent with *some* version of the schema (cost 5 for v1,
/// 3 for v2) — never an error — and the quiesced final requests must
/// reflect the final version. Before invalidate/replace evicted the disk
/// object under the slot lock, a racing rebuilder could reload the
/// pre-bump bundle from disk and serve it for the new generation.
#[test]
fn generation_bump_mid_batch_never_serves_a_stale_disk_artifact() {
    let root = test_root("bump-mid-batch");
    let store = Arc::new(ArtifactStore::open(&root));
    let cache = Arc::new(SchemaArtifactCache::with_store(store));
    let engine = Engine::with_cache(
        EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        },
        Arc::clone(&cache),
    );
    let id = engine.register(schema_v1()).expect("register");

    let stop = Arc::new(AtomicBool::new(false));
    let mutator = {
        let cache = Arc::clone(&cache);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut flips = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let next = if flips % 2 == 0 {
                    schema_v2()
                } else {
                    schema_v1()
                };
                cache.replace(id, next).expect("replace");
                // Interleave pure invalidations: same schema, bumped
                // generation — the disk object for the *current*
                // fingerprint is evicted each time.
                cache.invalidate(id);
                flips += 1;
                std::thread::yield_now();
            }
            // Leave the schema at v1 for the quiesced final requests.
            if flips % 2 == 1 {
                cache.replace(id, schema_v1()).expect("final replace");
            }
        })
    };

    for _ in 0..40 {
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                engine
                    .submit(QueryRequest::steiner(id, &["emp", "budget"]))
                    .expect("queue sized for the test load")
            })
            .collect();
        let costs: Vec<usize> = tickets
            .into_iter()
            .map(|t| {
                t.wait()
                    .expect("every version of hr can serve emp↔budget")
                    .cost
            })
            .collect();
        for &c in &costs {
            assert!(
                c == 5 || c == 3,
                "cost {c} matches neither schema version — a stale/garbage bundle was served"
            );
        }
    }

    stop.store(true, Ordering::Relaxed);
    mutator.join().expect("mutator thread");

    // Quiesced: the final version (v1) is what fresh requests see.
    let final_costs: Vec<usize> = [&["emp", "budget"], &["emp", "dept"]]
        .into_iter()
        .map(|names| {
            engine
                .submit(QueryRequest::steiner(id, names))
                .expect("admitted")
                .wait()
                .expect("served")
                .cost
        })
        .collect();
    assert_eq!(final_costs, vec![5, 3], "the final generation must win");
    engine.shutdown();
}
