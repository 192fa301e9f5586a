//! Byte-determinism of [`EngineStats::render_prometheus`].
//!
//! The render is a pure function of a `Copy` snapshot, so a hand-built
//! snapshot pins the full scrape text — names, `# HELP`/`# TYPE`
//! headers, order, and values — without any concurrency in sight. The
//! last test composes it with the global registry's render and checks
//! that the combined scrape names every family once.

use mcc_datamodel::RelationalSchema;
use mcc_engine::{
    ArtifactStore, Engine, EngineConfig, EngineStats, QueryRequest, SchemaArtifactCache,
    ENGINE_METRICS,
};
use std::sync::Arc;

fn sample() -> EngineStats {
    EngineStats {
        queue_depth: 4,
        submitted: 100,
        completed: 93,
        solved: 90,
        failed: 3,
        degraded: 7,
        rejected_full: 2,
        rejected_shutdown: 1,
        cache_hits: 88,
        cache_misses: 5,
        store_hits: 3,
        store_misses: 2,
        store_quarantined: 1,
        store_degraded: true,
    }
}

#[test]
fn render_matches_golden_byte_for_byte() {
    let golden = "\
# HELP mcc_engine_queue_depth Requests admitted but not yet picked up by a worker.
# TYPE mcc_engine_queue_depth gauge
mcc_engine_queue_depth 4
# HELP mcc_engine_submitted_total Requests admitted through the front door.
# TYPE mcc_engine_submitted_total counter
mcc_engine_submitted_total 100
# HELP mcc_engine_completed_total Requests fully served (answer delivered or caller gone).
# TYPE mcc_engine_completed_total counter
mcc_engine_completed_total 93
# HELP mcc_engine_solved_total Served requests that produced a solution.
# TYPE mcc_engine_solved_total counter
mcc_engine_solved_total 90
# HELP mcc_engine_failed_total Served requests that produced an error.
# TYPE mcc_engine_failed_total counter
mcc_engine_failed_total 3
# HELP mcc_engine_degraded_total Solutions that stepped down the degradation ladder.
# TYPE mcc_engine_degraded_total counter
mcc_engine_degraded_total 7
# HELP mcc_engine_rejected_full_total Submissions refused because the queue was at capacity.
# TYPE mcc_engine_rejected_full_total counter
mcc_engine_rejected_full_total 2
# HELP mcc_engine_rejected_shutdown_total Submissions refused because the engine was shutting down.
# TYPE mcc_engine_rejected_shutdown_total counter
mcc_engine_rejected_shutdown_total 1
# HELP mcc_engine_cache_hits_total Artifact-cache lookups served without schema-level work.
# TYPE mcc_engine_cache_hits_total counter
mcc_engine_cache_hits_total 88
# HELP mcc_engine_cache_misses_total Artifact builds: cold registrations plus rebuilds.
# TYPE mcc_engine_cache_misses_total counter
mcc_engine_cache_misses_total 5
# HELP mcc_engine_store_hits_total Bundles served from the disk tier instead of classification.
# TYPE mcc_engine_store_hits_total counter
mcc_engine_store_hits_total 3
# HELP mcc_engine_store_misses_total Disk-tier lookups that found no valid object.
# TYPE mcc_engine_store_misses_total counter
mcc_engine_store_misses_total 2
# HELP mcc_engine_store_quarantined_total On-disk blobs quarantined after failing validation.
# TYPE mcc_engine_store_quarantined_total counter
mcc_engine_store_quarantined_total 1
# HELP mcc_engine_store_degraded 1 when the disk tier has degraded to memory-only mode.
# TYPE mcc_engine_store_degraded gauge
mcc_engine_store_degraded 1
";
    assert_eq!(sample().render_prometheus(), golden);
}

#[test]
fn metric_table_is_consistent_and_unique() {
    // Every family appears in the render, exactly once, in table order.
    let out = sample().render_prometheus();
    let mut at = 0;
    for (name, kind, _help) in ENGINE_METRICS {
        let pos = out[at..]
            .find(&format!("# TYPE {name} {kind}\n"))
            .unwrap_or_else(|| panic!("family {name} missing or out of order"));
        at += pos + 1;
        assert!(
            kind == "gauge" || name.ends_with("_total"),
            "counter naming convention: {name}"
        );
        assert!(name.starts_with("mcc_engine_"), "engine prefix: {name}");
    }
    // Names are unique.
    let mut names: Vec<_> = ENGINE_METRICS.iter().map(|(n, _, _)| n).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), ENGINE_METRICS.len());
}

#[test]
fn render_into_appends() {
    let mut out = String::from("# prefix\n");
    sample().render_prometheus_into(&mut out);
    assert!(out.starts_with("# prefix\n# HELP mcc_engine_queue_depth"));
}

/// The `# TYPE` names of a scrape body, in order.
fn type_names(scrape: &str) -> Vec<&str> {
    scrape
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect()
}

/// One book of metrics: cache and store events are counted by
/// the engine and the store alone, so the engine's render and the
/// global registry's render share no family, and the registry renders
/// only what no component owns. Only names are checked, so other tests
/// recording into the process-wide registry cannot disturb this one.
#[test]
fn combined_scrape_names_every_family_once() {
    let root = std::env::temp_dir().join(format!("mcc-one-book-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(ArtifactStore::open(&root));
    let cache = SchemaArtifactCache::with_store(Arc::clone(&store));
    let engine = Engine::with_cache(EngineConfig::default(), Arc::new(cache));
    let id = engine
        .register(RelationalSchema::from_lists(
            "hr",
            &["emp", "dept", "budget"],
            &[("WORKS_IN", &[0, 1]), ("FUNDING", &[1, 2])],
        ))
        .expect("registered");
    let tickets: Vec<_> = [["emp", "budget"], ["emp", "dept"], ["dept", "budget"]]
        .into_iter()
        .map(|names| {
            engine
                .submit(QueryRequest::steiner(id, &names))
                .expect("admitted")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("served");
    }
    let stats = engine.shutdown();
    assert!(stats.cache_hits == 3 && stats.store_misses > 0);

    let mut scrape = stats.render_prometheus();
    let engine_len = scrape.len();
    mcc_obs::render_global_into(&mut scrape);

    let names = type_names(&scrape);
    for name in &names {
        assert_eq!(
            names.iter().filter(|n| *n == name).count(),
            1,
            "family {name} is rendered more than once"
        );
    }
    assert_eq!(
        type_names(&scrape[engine_len..]),
        [
            "mcc_stage_duration_nanos",
            "mcc_solve_duration_nanos",
            "mcc_degraded_total"
        ],
        "the global registry renders only what no component counts"
    );
    let _ = std::fs::remove_dir_all(&root);
}
