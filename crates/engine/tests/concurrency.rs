//! Concurrency suite for the serving engine: plain threads (no loom) —
//! shared-schema fan-out, cold-vs-warm result identity, shutdown-under-
//! load draining, and the warm-cache acceptance assertion that a
//! steady-state engine does no schema-level work at all.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc::{Solver, SolverConfig};
use mcc_datamodel::relational::Relation;
use mcc_datamodel::RelationalSchema;
use mcc_engine::{
    Engine, EngineConfig, EngineError, QueryKind, QueryRequest, Rejected, SchemaArtifactCache,
};
use mcc_gen::join_tree::JoinTreeShape;
use mcc_gen::random_alpha_acyclic;
use mcc_graph::{NodeSet, Side};
use proptest::prelude::*;
use std::sync::Arc;

/// A generated α-acyclic schema, seeded.
fn generated_schema(seed: u64) -> RelationalSchema {
    let (h, _) = random_alpha_acyclic(JoinTreeShape::default(), seed);
    RelationalSchema::from_hypergraph(&format!("gen{seed}"), &h)
}

/// The schemas the shared-fan-out tests serve: two generated α-acyclic
/// ones plus a handcrafted cyclic one (exact/heuristic routes).
fn schema_mix() -> Vec<RelationalSchema> {
    vec![
        generated_schema(1),
        generated_schema(2),
        RelationalSchema::from_lists(
            "cyc",
            &["a", "b", "c"],
            &[("r1", &[0, 1]), ("r2", &[1, 2]), ("r3", &[0, 2])],
        ),
    ]
}

/// Deterministic query: the first and last attribute names of `schema`.
fn span_query(schema: &RelationalSchema) -> Vec<String> {
    let first = schema.attributes.first().expect("attributes").clone();
    let last = schema.attributes.last().expect("attributes").clone();
    vec![first, last]
}

/// Reference answer computed cold, single-threaded, straight through the
/// solver (its own artifact build — no cache involved).
fn cold_reference(
    schema: &RelationalSchema,
    objects: &[String],
    kind: QueryKind,
) -> Result<mcc::Solution, mcc::SolveError> {
    let bg = schema.to_bipartite().expect("valid schema");
    let g = bg.graph().clone();
    let mut terminals = NodeSet::new(g.node_count());
    for name in objects {
        terminals.insert(g.node_by_label(name).expect("label resolves"));
    }
    let solver = Solver::with_config(bg, SolverConfig::default());
    match kind {
        QueryKind::Steiner => solver.solve_steiner(&terminals),
        QueryKind::Pseudo(side) => solver.solve_pseudo(&terminals, side),
    }
}

#[test]
fn n_threads_times_m_queries_over_shared_schemas() {
    const THREADS: usize = 8;
    const QUERIES: usize = 25;
    let engine = Engine::new(EngineConfig::with_workers(4));
    let schemas = schema_mix();
    let ids: Vec<_> = schemas
        .iter()
        .map(|s| engine.register(s.clone()).expect("register"))
        .collect();
    let expected: Vec<_> = schemas
        .iter()
        .map(|s| cold_reference(s, &span_query(s), QueryKind::Steiner))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            let schemas = &schemas;
            let ids = &ids;
            let expected = &expected;
            scope.spawn(move || {
                for q in 0..QUERIES {
                    let which = (t + q) % schemas.len();
                    let objects = span_query(&schemas[which]);
                    let names: Vec<&str> = objects.iter().map(String::as_str).collect();
                    let ticket = engine
                        .submit(QueryRequest::steiner(ids[which], &names))
                        .expect("admitted");
                    let got = ticket.wait();
                    match (&got, &expected[which]) {
                        (Ok(sol), Ok(want)) => assert_eq!(sol, want),
                        (Err(EngineError::Solve(e)), Err(want)) => assert_eq!(e, want),
                        (got, want) => panic!("mismatch: got {got:?}, want {want:?}"),
                    }
                }
            });
        }
    });

    let stats = engine.shutdown();
    let total = (THREADS * QUERIES) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.solved + stats.failed, total);
    assert_eq!(stats.queue_depth, 0);
    // Schema-level work happened exactly once per schema.
    assert_eq!(stats.cache_misses, schemas.len() as u64);
    assert_eq!(stats.cache_hits, total);
}

#[test]
fn warm_solves_skip_schema_work_per_engine_stats() {
    // The acceptance assertion: after registration, N solves = N cache
    // hits and zero additional misses — classification/ordering never
    // reruns on the warm path.
    let engine = Engine::new(EngineConfig::with_workers(2));
    let schema = generated_schema(5);
    let id = engine.register(schema.clone()).expect("register");
    assert_eq!(engine.stats().cache_misses, 1);

    const N: usize = 40;
    let objects = span_query(&schema);
    let names: Vec<&str> = objects.iter().map(String::as_str).collect();
    let tickets: Vec<_> = (0..N)
        .map(|_| {
            engine
                .submit(QueryRequest::steiner(id, &names))
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("warm solve succeeds");
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, N as u64);
    assert_eq!(stats.cache_misses, 1, "warm solves must not rebuild");

    // Invalidation forces exactly one rebuild, then warmth resumes.
    assert!(engine.cache().invalidate(id));
    engine
        .submit(QueryRequest::steiner(id, &names))
        .expect("admitted")
        .wait()
        .expect("post-invalidation solve");
    assert_eq!(engine.stats().cache_misses, 2);
    engine
        .submit(QueryRequest::steiner(id, &names))
        .expect("admitted")
        .wait()
        .expect("re-warmed solve");
    assert_eq!(engine.stats().cache_misses, 2);
}

/// `got` must be the same solution (or the same solver error) as the
/// cold single-threaded reference.
fn assert_matches_reference(
    got: &Result<mcc::Solution, EngineError>,
    want: &Result<mcc::Solution, mcc::SolveError>,
) {
    match (got, want) {
        (Ok(sol), Ok(want)) => assert_eq!(sol, want),
        (Err(EngineError::Solve(e)), Err(want)) => assert_eq!(e, want),
        (got, want) => panic!("mismatch: got {got:?}, want {want:?}"),
    }
}

#[test]
fn mixed_schema_submits_starve_only_the_budgeted_request() {
    use mcc::SolveBudget;

    const THREADS: usize = 6;
    const ROUNDS: usize = 6;
    let engine = Engine::new(EngineConfig::with_workers(4));
    let schemas = schema_mix();
    let ids: Vec<_> = schemas
        .iter()
        .map(|s| engine.register(s.clone()).expect("register"))
        .collect();
    let queries: Vec<Vec<String>> = schemas.iter().map(span_query).collect();
    let expected: Vec<_> = schemas
        .iter()
        .zip(&queries)
        .map(|(s, q)| cold_reference(s, q, QueryKind::Steiner))
        .collect();
    // A zero-duration deadline trips at the first check of its own
    // solve, wherever in the queue that request lands.
    let starved = SolveBudget::with_deadline(std::time::Duration::ZERO);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            let ids = &ids;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    // Two requests per schema, interleaved across schemas,
                    // plus one starved request whose per-request budget
                    // must not leak into its neighbours.
                    let mut requests = Vec::new();
                    for k in 0..2 * ids.len() {
                        let which = (t + r + k) % ids.len();
                        let names: Vec<&str> = queries[which].iter().map(String::as_str).collect();
                        requests.push((which, QueryRequest::steiner(ids[which], &names)));
                    }
                    let starved_at = ids.len();
                    let names: Vec<&str> = queries[0].iter().map(String::as_str).collect();
                    requests.insert(
                        starved_at,
                        (
                            usize::MAX,
                            QueryRequest::steiner(ids[0], &names).with_budget(starved),
                        ),
                    );
                    let tickets: Vec<_> = requests
                        .iter()
                        .map(|(_, req)| {
                            engine
                                .submit(req.clone())
                                .expect("queue sized for the load")
                        })
                        .collect();

                    for (i, (ticket, (which, _))) in tickets.into_iter().zip(&requests).enumerate()
                    {
                        let got = ticket.wait();
                        if i == starved_at {
                            assert!(
                                matches!(got, Err(EngineError::Solve(mcc::SolveError::Budget(_)))),
                                "starved request must trip its own budget"
                            );
                        } else {
                            assert_matches_reference(&got, &expected[*which]);
                        }
                    }
                }
            });
        }
    });

    let stats = engine.shutdown();
    let per_round = 2 * schemas.len() + 1;
    assert_eq!(stats.submitted, (THREADS * ROUNDS * per_round) as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.solved + stats.failed, stats.completed);
    assert_eq!(stats.failed, (THREADS * ROUNDS) as u64); // the starved requests
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn shutdown_under_load_drains_every_admitted_request() {
    const LOAD: usize = 200;
    let engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: LOAD,
        solver: SolverConfig::default(),
    });
    let schema = generated_schema(9);
    let id = engine.register(schema.clone()).expect("register");
    let objects = span_query(&schema);
    let names: Vec<&str> = objects.iter().map(String::as_str).collect();
    let tickets: Vec<_> = (0..LOAD)
        .map(|_| {
            engine
                .submit(QueryRequest::steiner(id, &names))
                .expect("queue sized for the whole load")
        })
        .collect();
    // Shut down immediately, while much of the load is still queued:
    // the drain contract says every admitted request is still answered.
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, LOAD as u64);
    assert_eq!(stats.completed, LOAD as u64);
    assert_eq!(stats.queue_depth, 0);
    for t in tickets {
        assert!(
            t.wait().is_ok(),
            "an admitted request must be served, not Lost"
        );
    }
}

#[test]
fn replace_retires_stale_worker_solvers() {
    let engine = Engine::new(EngineConfig::with_workers(2));
    let id = engine
        .register(RelationalSchema::from_lists(
            "v1",
            &["a", "b"],
            &[("R", &[0, 1])],
        ))
        .expect("register");
    engine
        .submit(QueryRequest::steiner(id, &["a", "b"]))
        .expect("admitted")
        .wait()
        .expect("serves v1");
    // Mutate the schema: a new attribute appears, reachable only through
    // a new relation. Every worker must retire its cached solver.
    engine
        .cache()
        .replace(
            id,
            RelationalSchema::from_lists("v2", &["a", "b", "c"], &[("R", &[0, 1]), ("S", &[1, 2])]),
        )
        .expect("replace");
    let sol = engine
        .submit(QueryRequest::steiner(id, &["a", "c"]))
        .expect("admitted")
        .wait()
        .expect("serves v2 names after replacement");
    assert_eq!(sol.cost, 5); // a – R – b – S – c
                             // The old-only query still works; a name that never existed fails.
    let err = engine
        .submit(QueryRequest::steiner(id, &["a", "z"]))
        .expect("admitted")
        .wait()
        .unwrap_err();
    assert_eq!(err, EngineError::UnknownName("z".into()));
}

#[test]
fn backpressure_rejections_are_typed_and_counted() {
    // Zero workers: the queue never drains, so rejection is
    // deterministic.
    let engine = Engine::new(EngineConfig {
        workers: 0,
        queue_capacity: 3,
        solver: SolverConfig::default(),
    });
    let schema = generated_schema(11);
    let id = engine.register(schema.clone()).expect("register");
    let objects = span_query(&schema);
    let names: Vec<&str> = objects.iter().map(String::as_str).collect();
    for _ in 0..3 {
        engine
            .submit(QueryRequest::steiner(id, &names))
            .expect("under capacity");
    }
    for _ in 0..2 {
        assert!(matches!(
            engine.submit(QueryRequest::steiner(id, &names)),
            Err(Rejected::QueueFull)
        ));
    }
    let stats = engine.stats();
    assert_eq!(stats.queue_depth, 3);
    assert_eq!(stats.rejected_full, 2);
}

#[test]
fn pseudo_queries_fan_out_too() {
    let engine = Engine::new(EngineConfig::with_workers(4));
    let schema = generated_schema(3);
    let id = engine.register(schema.clone()).expect("register");
    let objects = span_query(&schema);
    let names: Vec<&str> = objects.iter().map(String::as_str).collect();
    let expected = cold_reference(&schema, &objects, QueryKind::Pseudo(Side::V2));
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let engine = &engine;
            let names = &names;
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..10 {
                    let got = engine
                        .submit(QueryRequest::pseudo(id, names, Side::V2))
                        .expect("admitted")
                        .wait();
                    match (&got, expected) {
                        (Ok(sol), Ok(want)) => assert_eq!(sol, want),
                        (Err(EngineError::Solve(e)), Err(want)) => assert_eq!(e, want),
                        (got, want) => panic!("mismatch: got {got:?}, want {want:?}"),
                    }
                }
            });
        }
    });
}

#[test]
fn engines_can_share_one_cache() {
    let cache = Arc::new(SchemaArtifactCache::new());
    let a = Engine::with_cache(EngineConfig::with_workers(1), Arc::clone(&cache));
    let b = Engine::with_cache(EngineConfig::with_workers(1), Arc::clone(&cache));
    let schema = generated_schema(13);
    let id = a.register(schema.clone()).expect("register");
    // Engine b sees the registration through the shared cache; no second
    // build happens.
    let objects = span_query(&schema);
    let names: Vec<&str> = objects.iter().map(String::as_str).collect();
    let from_a = a
        .submit(QueryRequest::steiner(id, &names))
        .expect("admitted")
        .wait()
        .expect("a serves");
    let from_b = b
        .submit(QueryRequest::steiner(id, &names))
        .expect("admitted")
        .wait()
        .expect("b serves");
    assert_eq!(from_a, from_b);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 2);
}

/// A random valid relational schema (mirrors the datamodel suite's
/// strategy): ≤ 6 attributes, ≤ 5 relations, each a nonempty subset.
fn small_schema() -> impl Strategy<Value = RelationalSchema> {
    (2usize..=6)
        .prop_flat_map(|n_attrs| {
            proptest::collection::vec(1u32..(1 << n_attrs), 1..=5)
                .prop_map(move |masks| (n_attrs, masks))
        })
        .prop_map(|(n_attrs, masks)| {
            let attributes: Vec<String> = (0..n_attrs).map(|i| format!("a{i}")).collect();
            let relations = masks
                .iter()
                .enumerate()
                .map(|(i, mask)| Relation {
                    name: format!("R{i}"),
                    attributes: (0..n_attrs).filter(|j| mask & (1 << j) != 0).collect(),
                })
                .collect();
            RelationalSchema {
                name: "prop".into(),
                attributes,
                relations,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cold-vs-warm identity: for any valid schema and any attribute
    /// pair, the engine's cached-artifact answer equals a cold solver's
    /// (same tree, strategy, and cost — or the same error).
    #[test]
    fn cached_artifact_solves_match_cold_solves(
        schema in small_schema(),
        pick in (0usize..100, 0usize..100),
    ) {
        let i = pick.0 % schema.attributes.len();
        let j = pick.1 % schema.attributes.len();
        let objects = vec![schema.attributes[i].clone(), schema.attributes[j].clone()];
        let engine = Engine::new(EngineConfig::with_workers(2));
        let id = engine.register(schema.clone()).expect("register");
        for kind in [QueryKind::Steiner, QueryKind::Pseudo(Side::V2)] {
            let names: Vec<&str> = objects.iter().map(String::as_str).collect();
            let request = match kind {
                QueryKind::Steiner => QueryRequest::steiner(id, &names),
                QueryKind::Pseudo(side) => QueryRequest::pseudo(id, &names, side),
            };
            // Solve twice through the engine: the second is guaranteed
            // warm on some worker.
            let first = engine.submit(request.clone()).expect("admitted").wait();
            let second = engine.submit(request).expect("admitted").wait();
            let cold = cold_reference(&schema, &objects, kind);
            for warm in [&first, &second] {
                match (warm, &cold) {
                    (Ok(sol), Ok(want)) => prop_assert_eq!(sol, want),
                    (Err(EngineError::Solve(e)), Err(want)) => prop_assert_eq!(e, want),
                    (got, want) => prop_assert!(false, "mismatch: got {:?}, want {:?}", got, want),
                }
            }
        }
    }
}
