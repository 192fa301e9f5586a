//! Set-up and the timed phase: one client thread driving the engine in
//! a closed loop with a fixed window of in-flight tickets, or calling
//! `QueryEngine::connect` directly. The load never reads the clock to
//! decide anything; mutations are scheduled by operation count.

use crate::check::{side_cost, Ledger, Route, Versions};
use crate::inputs::{Inputs, Mutation, Workload, PER_SCHEMA, WINDOW, WORKERS};
use crate::trace::{Tracer, NO_PARENT};
use mcc::datamodel::QueryEngine;
use mcc::{SolveBudget, SolverConfig};
use mcc_engine::{
    ArtifactStore, Engine, EngineConfig, EngineStats, QueryRequest, SchemaArtifactCache, SchemaId,
    Side, Ticket,
};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub fn solver_config(w: Workload) -> SolverConfig {
    let mut c = SolverConfig::default();
    if w == Workload::OffclassLadder {
        c.max_exact_terminals = crate::inputs::OFFCLASS_MAX_EXACT;
        c.budget = SolveBudget {
            max_dp_bytes: crate::inputs::OFFCLASS_MAX_DP_BYTES,
            ..SolveBudget::default()
        };
    }
    c
}

pub enum Server {
    Engine { engine: Engine, ids: Vec<SchemaId> },
    Embedded { engines: Vec<QueryEngine> },
}

/// The program's cold set-up for the whole schema set: engine spawn plus
/// `Engine::register` of every schema (over a disk store at `store_root`
/// when given), or `QueryEngine::new` per schema.
pub fn set_up(inputs: &Inputs, store_root: Option<&Path>) -> Server {
    if !inputs.workload.uses_engine() {
        let engines = inputs
            .schemas
            .iter()
            .map(|s| QueryEngine::new(s.schema.clone()).expect("generated schemas are valid"))
            .collect();
        return Server::Embedded { engines };
    }
    let config = EngineConfig {
        workers: WORKERS,
        queue_capacity: 4 * WINDOW,
        solver: solver_config(inputs.workload),
    };
    let engine = match store_root {
        Some(root) => {
            let store = Arc::new(ArtifactStore::open(root));
            Engine::with_cache(config, Arc::new(SchemaArtifactCache::with_store(store)))
        }
        None => Engine::new(config),
    };
    let ids = inputs
        .schemas
        .iter()
        .map(|s| {
            engine
                .register(s.schema.clone())
                .expect("generated schemas are valid")
        })
        .collect();
    Server::Engine { engine, ids }
}

/// What one phase measured.
pub struct PhaseOut {
    /// Submit-to-answer (or `connect`) time of every read, in ns.
    pub latencies: Vec<u64>,
    /// Pool entry of each read in `latencies`.
    pub latency_pools: Vec<u32>,
    /// Mutation-to-probe-answer time of every mutation, in ns
    /// (`schema_churn` only).
    pub refresh: Vec<u64>,
    /// Wall time of the timed phase, in ns.
    pub elapsed_ns: u64,
    /// Answers completed in the timed phase (probes and twins included).
    pub answered: u64,
    /// Mutations inside the timed phase.
    pub mutations: u64,
    /// Mutations whose rebuilds all loaded the schema from disk.
    pub disk_hit_mutations: u64,
    pub ledger: Ledger,
    /// Engine counters before and after the timed phase.
    pub engine_delta: Option<(EngineStats, EngineStats)>,
    /// Largest queue depth seen after a submit (traced runs only).
    pub queue_depth_max: usize,
}

/// A request on its way: what was sent, and when.
struct Sent {
    op: u64,
    pool: u32,
    version: u32,
    t0: Instant,
    span: u32,
}

type Response = Result<mcc::Solution, mcc_engine::EngineError>;

/// The client's bookkeeping, shared by reads and probes.
struct Client<'a> {
    inputs: &'a Inputs,
    versions: &'a Versions,
    ledger: Ledger,
    latencies: Vec<u64>,
    latency_pools: Vec<u32>,
    answered: u64,
    tracer: Option<&'a mut Tracer>,
    /// Variant (0 original, 1 perturbed) each schema currently serves.
    current: Vec<u8>,
}

impl Client<'_> {
    fn version(&self, schema: usize) -> u32 {
        (2 * schema + self.current[schema] as usize) as u32
    }

    fn settle(&mut self, f: Sent, response: Response, read: bool) {
        let nanos = f.t0.elapsed().as_nanos() as u64;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.close(f.span);
        }
        self.answered += 1;
        if read {
            self.latencies.push(nanos);
            self.latency_pools.push(f.pool);
        }
        match response {
            Ok(sol) => self.ledger.answer(
                self.versions,
                self.inputs,
                f.op,
                f.version,
                f.pool,
                &sol.tree,
                Route::of_solver(sol.strategy),
                sol.cost,
                sol.degraded.as_ref(),
                Some((sol.stats.elimination_steps, sol.stats.bfs_runs)),
            ),
            Err(e) => self.ledger.failed(f.pool, e.to_string()),
        }
    }

    /// Blocks on the oldest ticket, then collects every other answer
    /// that has already arrived.
    fn harvest(&mut self, inflight: &mut VecDeque<(Sent, Ticket)>) {
        let Some((f, ticket)) = inflight.pop_front() else {
            return;
        };
        let response = match self.tracer.as_deref_mut() {
            Some(t) => t.time("engine.wait", f.span, f.op, || ticket.wait()),
            None => ticket.wait(),
        };
        self.settle(f, response, true);
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].1.try_wait() {
                Some(r) => {
                    let (f, _) = inflight.remove(i).expect("index in range");
                    self.settle(f, r, true);
                }
                None => i += 1,
            }
        }
    }
}

/// Runs `ops` operations of the stream against a set-up server.
pub fn run_phase(
    server: &mut Server,
    inputs: &Inputs,
    versions: &Versions,
    ops: u64,
    tracer: Option<&mut Tracer>,
) -> PhaseOut {
    let mut client = Client {
        inputs,
        versions,
        ledger: Ledger::new(),
        latencies: Vec::with_capacity(ops as usize),
        latency_pools: Vec::with_capacity(ops as usize),
        answered: 0,
        tracer,
        current: vec![0; inputs.schemas.len()],
    };
    let churn = inputs.workload == Workload::SchemaChurn;
    let mut refresh = Vec::new();
    let mut mutations = 0;
    let mut disk_hit_mutations = 0;
    let mut queue_depth_max = 0;
    let (elapsed_ns, engine_delta) = match server {
        Server::Engine { engine, ids } => {
            let requests: Vec<QueryRequest> = inputs
                .pool
                .iter()
                .map(|r| {
                    let names = r.names();
                    if r.pseudo {
                        QueryRequest::pseudo(ids[r.schema], &names, Side::V2)
                    } else {
                        QueryRequest::steiner(ids[r.schema], &names)
                    }
                })
                .collect();
            let before = engine.stats();
            let start = Instant::now();
            let mut inflight: VecDeque<(Sent, Ticket)> = VecDeque::with_capacity(WINDOW);
            for op in 0..ops {
                if let Some((s, m)) = inputs.schedule.at(op).filter(|_| churn) {
                    while !inflight.is_empty() {
                        client.harvest(&mut inflight);
                    }
                    debug_assert_eq!(inputs.schedule.mutation(mutations), (s, m));
                    let step = refresh_engine(engine, ids, &requests, &mut client, mutations, op);
                    refresh.push(step.nanos);
                    disk_hit_mutations += u64::from(step.disk_hit);
                    mutations += 1;
                    continue;
                }
                while inflight.len() >= WINDOW {
                    client.harvest(&mut inflight);
                }
                let pool = inputs.stream[op as usize];
                let request = requests[pool as usize].clone();
                let version = client.version(inputs.pool[pool as usize].schema);
                let t0 = Instant::now();
                let (span, submitted) = match client.tracer.as_deref_mut() {
                    Some(t) => {
                        let span = t.open("request", NO_PARENT, op);
                        let submitted =
                            t.time("engine.submit", span, op, || engine.submit(request));
                        queue_depth_max = queue_depth_max.max(engine.stats().queue_depth);
                        (span, submitted)
                    }
                    None => (NO_PARENT, engine.submit(request)),
                };
                match submitted {
                    Ok(ticket) => inflight.push_back((
                        Sent {
                            op,
                            pool,
                            version,
                            t0,
                            span,
                        },
                        ticket,
                    )),
                    Err(rejected) => client.ledger.failed(pool, rejected.to_string()),
                }
            }
            while !inflight.is_empty() {
                client.harvest(&mut inflight);
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            (elapsed, Some((before, engine.stats())))
        }
        Server::Embedded { engines } => {
            let start = Instant::now();
            for op in 0..ops {
                let pool = inputs.stream[op as usize];
                let t0 = Instant::now();
                connect(engines, &mut client, op, pool, t0);
            }
            (start.elapsed().as_nanos() as u64, None)
        }
    };
    PhaseOut {
        latencies: client.latencies,
        latency_pools: client.latency_pools,
        refresh,
        elapsed_ns,
        answered: client.answered,
        mutations,
        disk_hit_mutations,
        ledger: client.ledger,
        engine_delta,
        queue_depth_max,
    }
}

/// One `connect` on the embedded path, resolved and answered in two
/// traced steps when tracing.
fn connect(engines: &[QueryEngine], client: &mut Client<'_>, op: u64, pool: u32, t0: Instant) {
    let request = &client.inputs.pool[pool as usize];
    let engine = &engines[request.schema];
    let names = request.names();
    let answer = match client.tracer.as_deref_mut() {
        Some(t) => {
            let root = t.open("request", NO_PARENT, op);
            let answer = t
                .time("datamodel.resolve", root, op, || engine.resolve(&names))
                .and_then(|terminals| {
                    t.time("datamodel.connect_terminals", root, op, || {
                        engine.connect_terminals(&terminals)
                    })
                });
            t.close(root);
            answer
        }
        None => engine.connect(&names),
    };
    let nanos = t0.elapsed().as_nanos() as u64;
    client.answered += 1;
    client.latencies.push(nanos);
    client.latency_pools.push(pool);
    let version = client.version(request.schema);
    match answer {
        Ok(it) => {
            let bg = &client.versions.graphs[version as usize];
            let cost = side_cost(bg, &it.tree, request.pseudo);
            client.ledger.answer(
                client.versions,
                client.inputs,
                op,
                version,
                pool,
                &it.tree,
                Route::of_datamodel(it.strategy),
                cost,
                it.degraded.as_ref(),
                None,
            );
        }
        Err(e) => client.ledger.failed(pool, e.to_string()),
    }
}

/// What one mutation step of `schema_churn` measured.
struct Step {
    /// From the mutation call to the probe's answer, in ns.
    nanos: u64,
    /// Every rebuild of the step loaded the schema from disk.
    disk_hit: bool,
}

/// Mutation `m` of the schedule, as operation `op`: the mutation, then a
/// probe on the mutated schema. After a restore a twin (another request
/// on the same schema) is submitted right behind the probe, so both
/// workers may rebuild the schema at once. The window is drained before
/// and after, so the step's cache misses are its own: one per rebuild,
/// two when the rebuilds duplicate.
///
/// Twins follow restores only. A restore's rebuilds load the schema from
/// disk; after a perturbation or an invalidation they would build it and
/// write it through, and two concurrent write-throughs of one schema
/// share a temp file, which degrades the store to memory-only for the
/// rest of the process.
fn refresh_engine(
    engine: &Engine,
    ids: &[SchemaId],
    requests: &[QueryRequest],
    client: &mut Client<'_>,
    m: u64,
    op: u64,
) -> Step {
    let (s, kind) = client.inputs.schedule.mutation(m);
    let spec = &client.inputs.schemas[s];
    let replacement = match kind {
        Mutation::Perturb => Some(spec.perturbed.clone()),
        Mutation::Restore => Some(spec.schema.clone()),
        Mutation::Invalidate => None,
    };
    // The probe, and after a restore its twin.
    let sends = if kind == Mutation::Restore { 2 } else { 1 };
    let pools: Vec<u32> = (m..m + sends)
        .map(|j| (s * PER_SCHEMA) as u32 + (j % PER_SCHEMA as u64) as u32)
        .collect();
    let cache = engine.cache();
    let before = engine.stats();
    let t0 = Instant::now();
    let root = client
        .tracer
        .as_deref_mut()
        .map_or(NO_PARENT, |t| t.open("refresh", NO_PARENT, op));
    let mutate = || match replacement {
        Some(schema) => cache
            .replace(ids[s], schema)
            .expect("generated schemas are valid"),
        None => {
            cache.invalidate(ids[s]);
        }
    };
    match client.tracer.as_deref_mut() {
        Some(t) if kind == Mutation::Invalidate => t.time("engine.invalidate", root, op, mutate),
        Some(t) => t.time("engine.replace", root, op, mutate),
        None => mutate(),
    }
    match kind {
        Mutation::Perturb => client.current[s] = 1,
        Mutation::Restore => client.current[s] = 0,
        Mutation::Invalidate => {}
    }
    let version = client.version(s);
    let tickets: Vec<_> = pools
        .into_iter()
        .map(|pool| {
            let request = requests[pool as usize].clone();
            let ticket = match client.tracer.as_deref_mut() {
                Some(t) => t.time("engine.submit", root, op, || engine.submit(request)),
                None => engine.submit(request),
            };
            (pool, ticket)
        })
        .collect();
    let mut nanos = 0;
    for (i, (pool, ticket)) in tickets.into_iter().enumerate() {
        match ticket {
            Ok(ticket) => {
                let response = match client.tracer.as_deref_mut() {
                    Some(t) => t.time("engine.wait", root, op, || ticket.wait()),
                    None => ticket.wait(),
                };
                if i == 0 {
                    nanos = t0.elapsed().as_nanos() as u64;
                }
                let sent = Sent {
                    op,
                    pool,
                    version,
                    t0,
                    span: NO_PARENT,
                };
                client.settle(sent, response, false);
            }
            Err(rejected) => client.ledger.failed(pool, rejected.to_string()),
        }
    }
    if let Some(t) = client.tracer.as_deref_mut() {
        t.close(root);
    }
    let after = engine.stats();
    let misses = after.cache_misses - before.cache_misses;
    let disk_hits = after.store_hits - before.store_hits;
    // A schema on disk is loaded by every rebuild; one that is not is
    // built by the first, whose write-through a late duplicate may find.
    if misses == 0 || disk_hits > misses {
        client.ledger.problems.push(format!(
            "mutation {m}: {misses} rebuilds and {disk_hits} disk hits"
        ));
    }
    if after.store_degraded && !before.store_degraded {
        client
            .ledger
            .problems
            .push(format!("mutation {m}: the store degraded to memory-only"));
    }
    Step {
        nanos,
        disk_hit: misses > 0 && disk_hits == misses,
    }
}
