//! The single-threaded layer replay of the traced run: every schema of
//! the workload goes through `to_bipartite → classify → H¹ join tree →
//! SchemaArtifacts::build → encode/decode → ArtifactStore write/load/
//! remove → Solver::from_artifacts → QueryEngine::new`, and a prefix of
//! the request stream through `resolve → connect_terminals → solve`,
//! each call inside a benchmark span.

use crate::check::{Route, Versions};
use crate::inputs::{Class, Inputs, Workload};
use crate::trace::{Tracer, NO_PARENT};
use mcc::datamodel::QueryEngine;
use mcc::hypergraph::{h1_of_bipartite, join_tree};
use mcc::obs::SpanKind;
use mcc::{SchemaArtifacts, Solver, SolverConfig};
use mcc_engine::{ArtifactStore, Side, StoreStats};
use std::path::Path;
use std::sync::Arc;

/// One replayed solve.
pub struct Solve {
    pub pool: u32,
    pub route: Route,
    pub nanos: u64,
    pub bucket: usize,
    /// `|V|·|A|` of the schema graph.
    pub va: u64,
    pub nodes: usize,
    pub terminals: usize,
    pub elimination_steps: u64,
    pub bfs_runs: u64,
    pub scratch_bytes: usize,
}

pub struct Replay {
    pub classes: [u64; 3],
    pub dense_rows: u64,
    pub schemas: u64,
    pub blob_bytes: Vec<u64>,
    pub store: StoreStats,
    pub solves: Vec<Solve>,
    pub problems: Vec<String>,
}

/// The `SolveTrace` stage a route must have run.
fn stage_of(route: Route) -> SpanKind {
    match route {
        Route::Algorithm2 => SpanKind::Algorithm2,
        Route::Algorithm1 => SpanKind::Algorithm1,
        Route::Exact => SpanKind::ExactDp,
        Route::Heuristic => SpanKind::Kmb,
    }
}

pub fn replay(
    inputs: &Inputs,
    versions: &Versions,
    config: SolverConfig,
    prefix: u64,
    store_root: &Path,
    t: &mut Tracer,
) -> Replay {
    let store = ArtifactStore::open(store_root);
    let mut out = Replay {
        classes: [0; 3],
        dense_rows: 0,
        schemas: 0,
        blob_bytes: Vec::new(),
        store: StoreStats::default(),
        solves: Vec::new(),
        problems: Vec::new(),
    };
    let variants: &[bool] = if inputs.workload == Workload::SchemaChurn {
        &[false, true]
    } else {
        &[false]
    };
    let mut solvers = Vec::new();
    let mut engines = Vec::new();
    for (si, spec) in inputs.schemas.iter().enumerate() {
        for &perturbed in variants {
            let schema = if perturbed {
                &spec.perturbed
            } else {
                &spec.schema
            };
            let req = si as u64;
            let root = t.open("replay.schema", NO_PARENT, req);
            let bg = t
                .time("datamodel.to_bipartite", root, req, || {
                    schema.to_bipartite()
                })
                .expect("generated schemas are valid");
            let c = t.time("chordality.classify", root, req, || {
                mcc::chordality::classify_bipartite(&bg)
            });
            out.schemas += 1;
            if c.six_two {
                out.classes[Class::SixTwo as usize] += 1;
            } else if c.h1_alpha_acyclic() {
                out.classes[Class::Alpha as usize] += 1;
            } else if !c.h2_alpha_acyclic() {
                out.classes[Class::Cyclic as usize] += 1;
            }
            t.time("hypergraph.h1_join_tree", root, req, || {
                h1_of_bipartite(&bg).ok().map(|(h, _, _)| join_tree(&h))
            });
            let input = bg.clone();
            let artifacts = t.time("core.artifacts_build", root, req, || {
                SchemaArtifacts::build(input)
            });
            if artifacts.bipartite().graph().has_dense_rows() {
                out.dense_rows += 1;
            }
            let fp = schema.fingerprint();
            let blob = t.time("store.encode", root, req, || {
                mcc_store::encode(fp, &artifacts)
            });
            out.blob_bytes.push(blob.len() as u64);
            if t.time("store.decode", root, req, || {
                mcc_store::decode(&blob, Some(fp))
            })
            .is_err()
            {
                out.problems
                    .push(format!("{}: encoded bundle does not decode", schema.name));
            }
            t.time("store.write", root, req, || store.store(fp, &artifacts));
            if t.time("store.load", root, req, || store.load(fp)).is_none() {
                out.problems
                    .push(format!("{}: stored bundle does not load", schema.name));
            }
            t.time("store.remove", root, req, || store.remove(fp));
            let shared = Arc::new(artifacts);
            let solver = t.time("core.solver_from_artifacts", root, req, || {
                Solver::from_artifacts(shared, config)
            });
            let engine = t
                .time("datamodel.queryengine_new", root, req, || {
                    QueryEngine::new(schema.clone())
                })
                .expect("generated schemas are valid");
            t.close(root);
            if !perturbed {
                solvers.push(solver);
                engines.push(engine);
            }
        }
    }
    out.store = store.stats();
    for op in 0..prefix.min(inputs.stream.len() as u64) {
        let pool = inputs.stream[op as usize];
        let request = &inputs.pool[pool as usize];
        let spec = &inputs.schemas[request.schema];
        let engine = &engines[request.schema];
        let solver = &solvers[request.schema];
        let root = t.open("replay.request", NO_PARENT, op);
        let names = request.names();
        let terminals = t
            .time("datamodel.resolve", root, op, || engine.resolve(&names))
            .expect("pooled names exist");
        if let Err(e) = t.time("datamodel.connect_terminals", root, op, || {
            engine.connect_terminals(&terminals)
        }) {
            out.problems
                .push(format!("connect of request {pool} failed: {e}"));
        }
        let id = t.open("core.solve", root, op);
        let solved = if request.pseudo {
            solver.solve_pseudo(&terminals, Side::V2)
        } else {
            solver.solve_steiner(&terminals)
        };
        t.close(id);
        t.close(root);
        let nanos = t.spans.get(id as usize).map_or(0, |s| s.nanos());
        match solved {
            Ok(sol) => {
                let route = Route::of_solver(sol.strategy);
                if sol.trace.count(stage_of(route)) == 0 {
                    out.problems.push(format!(
                        "request {pool}: answered by {route:?} but its SolveTrace has no {:?} stage",
                        stage_of(route)
                    ));
                }
                let g = versions.graphs[2 * request.schema].graph();
                out.solves.push(Solve {
                    pool,
                    route,
                    nanos,
                    bucket: spec.bucket,
                    va: (g.node_count() * g.edge_count()) as u64,
                    nodes: g.node_count(),
                    terminals: terminals.len(),
                    elimination_steps: sol.stats.elimination_steps,
                    bfs_runs: sol.stats.bfs_runs,
                    scratch_bytes: sol.stats.scratch_bytes,
                });
            }
            Err(e) => out
                .problems
                .push(format!("replayed solve of request {pool} failed: {e}")),
        }
    }
    out
}
