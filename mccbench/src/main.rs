//! `mccbench` — the serving benchmark of the mcc stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path mccbench/Cargo.toml -- \
//!     --workload warm_serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs one
//! count-driven timed phase, verifies every answer and prints the
//! end-to-end metrics. With `--trace 1` it runs the phase three times
//! (telemetry on, telemetry off, and under the benchmark's own spans),
//! then replays the stream layer by layer, and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the
//! lines before it are a human-readable table with sample counts.

mod check;
mod inputs;
mod layers;
mod metrics;
mod serve;
mod trace;

use check::{Repeat, Route, Versions};
use inputs::{Inputs, Mutation, Workload, BUCKETS, OFFCLASS_MAX_EXACT};
use mcc::obs::{SpanKind, NUM_BUCKETS};
use serve::{run_phase, set_up, solver_config, PhaseOut, Server};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run, the first five before the timed phase and
/// the rest after it, so their median spans the whole run; `setup_s` is
/// that median.
const SETUP_REPS: usize = 9;
const SETUPS_BEFORE: usize = 5;
/// Requests of the stream the layer replay solves one by one.
const REPLAY_PREFIX: u64 = 4_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", map["--workload"]))?;
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    notes: Vec<String>,
    attempted: u64,
    ok: u64,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }
}

/// Nearest-rank percentile of exact samples.
fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

fn median_f(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mutations among the first `ops` operations whose rebuild the churn
/// schedule implies loads from disk: a restore finds the original still
/// on disk, a repeated perturbation finds its earlier write, an
/// invalidation always misses.
fn implied_store_hits(inputs: &Inputs, ops: u64) -> u64 {
    let mut on_disk: Vec<[bool; 2]> = vec![[true, false]; inputs.schemas.len()];
    let mut current = vec![0usize; inputs.schemas.len()];
    let mut hits = 0;
    for op in 0..ops {
        let Some((s, m)) = inputs.schedule.at(op) else {
            continue;
        };
        match m {
            Mutation::Perturb => current[s] = 1,
            Mutation::Restore => current[s] = 0,
            Mutation::Invalidate => on_disk[s][current[s]] = false,
        }
        if on_disk[s][current[s]] {
            hits += 1;
        }
        on_disk[s][current[s]] = true;
    }
    hits
}

/// Sets the workload up (a fresh store directory for churn) and returns
/// the server and the set-up time in seconds.
fn timed_setup(inputs: &Inputs, scratch: &Path, tag: &str) -> (Server, f64) {
    let root = (inputs.workload == Workload::SchemaChurn).then(|| scratch.join(tag));
    if let Some(r) = &root {
        let _ = std::fs::remove_dir_all(r);
    }
    let t0 = Instant::now();
    let server = set_up(inputs, root.as_deref());
    (server, t0.elapsed().as_secs_f64())
}

fn shut_down(server: Server) {
    if let Server::Engine { engine, .. } = server {
        engine.shutdown();
    }
}

/// The quantities that must repeat exactly for a seed and op count.
fn repeat_record(rep: &Repeat, phase: &PhaseOut, classes: [u64; 3], head_reference: u64) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "classes={classes:?} routes={:?} attempted={} guaranteed={} degraded={} dp_refusals={} \
         elimination_steps={} bfs_runs={} head_cost={} head_reference={head_reference} mutations={} \
         disk_hit_mutations={}",
        rep.routes,
        rep.attempted,
        rep.guaranteed,
        rep.degraded,
        rep.dp_refusals,
        rep.elimination_steps,
        rep.bfs_runs,
        rep.head_cost,
        phase.mutations,
        phase.disk_hit_mutations
    );
    s
}

/// FNV-1a of this executable, so records of different builds never meet.
fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compares `record` with the one an earlier run of the same build and
/// key left, or leaves it for the next run.
fn check_repeat(out_dir: &Path, key: &str, record: &str, report: &mut Report) {
    let dir = out_dir.join("repeat").join(format!("{:016x}", build_id()));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == record => {
            report.notes.push("repeat: matches the earlier run".into())
        }
        Ok(earlier) => report.problems.push(format!(
            "exact-repeat drift for {key}:\n  earlier {}\n  now     {record}",
            earlier.trim()
        )),
        Err(_) => {
            let _ = std::fs::write(&path, record);
            report
                .notes
                .push("repeat: first run of this key, record kept".into());
        }
    }
}

fn class_counts(inputs: &Inputs) -> [u64; 3] {
    let mut c = [0u64; 3];
    for s in &inputs.schemas {
        c[s.class as usize] += 1;
    }
    c
}

/// The untraced run: end-to-end metrics.
fn plain_run(args: &Args, out_dir: &Path, scratch: &Path, report: &mut Report) {
    let w = args.workload;
    let ops = w.ops_per_second() * args.seconds;
    let t_gen = Instant::now();
    let inputs = Inputs::generate(w, args.seed, ops);
    let versions = Versions::new(&inputs);
    let t_setup = Instant::now();
    let mut setups = Vec::new();
    let mut setup = |rep: usize| {
        let (s, secs) = timed_setup(&inputs, scratch, &format!("setup{rep}"));
        setups.push(secs);
        s
    };
    for rep in 0..SETUPS_BEFORE - 1 {
        shut_down(setup(rep));
    }
    let mut server = setup(SETUPS_BEFORE - 1);
    let t_phase = Instant::now();
    let mut phase = run_phase(&mut server, &inputs, &versions, ops, None);
    let phase_s = t_phase.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    shut_down(server);
    for rep in SETUPS_BEFORE..SETUP_REPS {
        shut_down(setup(rep));
    }
    let t_verify = Instant::now();
    let verdict = phase.ledger.finish(&inputs, &versions, solver_config(w));
    report.problems.append(&mut phase.ledger.problems);
    let want = if w == Workload::SchemaChurn {
        implied_store_hits(&inputs, ops)
    } else {
        0
    };
    let got = phase.disk_hit_mutations;
    if got != want {
        report.problems.push(format!(
            "{got} mutations loaded from disk, the schedule implies {want}"
        ));
    }
    report.notes.push(format!(
        "wall time: inputs {:.1} s, set-ups {:.1} s, timed phase {:.1} s, verification {:.1} s",
        (t_setup - t_gen).as_secs_f64(),
        (t_verify - t_setup).as_secs_f64() - phase_s,
        phase_s,
        t_verify.elapsed().as_secs_f64()
    ));
    let record = repeat_record(
        &phase.ledger.repeat,
        &phase,
        class_counts(&inputs),
        verdict.head_reference,
    );
    println!("repeat: {record}");
    check_repeat(
        out_dir,
        &format!("{}-seed{}-ops{ops}-trace0", w.name(), args.seed),
        &record,
        report,
    );

    let us = |ns: f64| ns / 1e3;
    let n = phase.latencies.len() as u64;
    report.add("setup_s", median_f(&setups), "s", setups.len() as u64);
    report.add(
        "query_p50_us",
        us(percentile(&phase.latencies, 50.0)),
        "us",
        n,
    );
    // Throughput, the tail and the refresh times move with the host beyond
    // any bound the benchmark may set, so they are printed here and
    // bounded nowhere (the traced run reports them among the per-layer
    // metrics).
    report.notes.push(format!(
        "unbounded: throughput_qps {:.0} 1/s over {n} reads; query_p99_us {:.1} us over {n} \
         samples; refresh_p50_us {:.1} us, refresh_p90_us {:.1} us over {} samples",
        phase.answered as f64 / (phase.elapsed_ns as f64 / 1e9),
        us(percentile(&phase.latencies, 99.0)),
        us(percentile(&phase.refresh, 50.0)),
        us(percentile(&phase.refresh, 90.0)),
        phase.refresh.len()
    ));
    report.add(
        "ok_ratio",
        ratio(verdict.ok, verdict.attempted),
        "ratio",
        verdict.attempted,
    );
    report.add(
        "guaranteed_ratio",
        ratio(verdict.guaranteed, verdict.attempted),
        "ratio",
        verdict.attempted,
    );
    report.add(
        "cost_ratio",
        verdict.cost_ratio,
        "ratio",
        inputs::SUBSAMPLE as u64,
    );
    report.add("peak_rss_mb", rss, "MiB", 1);
    report.attempted = verdict.attempted;
    report.ok = verdict.ok;
}

/// Bucket counts of one program stage histogram.
fn stage_buckets(kind: SpanKind) -> [u64; NUM_BUCKETS] {
    let h = mcc::obs::global().stage(kind);
    std::array::from_fn(|i| h.bucket(i))
}

/// A percentile read off log2 histogram buckets: the upper bound of the
/// bucket holding it, in µs (so within a factor of two).
fn bucket_percentile_us(
    before: &[u64; NUM_BUCKETS],
    after: &[u64; NUM_BUCKETS],
    p: f64,
) -> (f64, u64) {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return (0.0, 0);
    }
    let want = ((p / 100.0) * total as f64).ceil() as u64;
    let mut seen = 0;
    for (i, c) in delta.iter().enumerate() {
        seen += c;
        if seen >= want.max(1) {
            return (mcc::obs::metrics::bucket_bound(i) as f64 / 1e3, total);
        }
    }
    (0.0, total)
}

/// One untraced or traced phase of the traced run, on a fresh set-up.
fn traced_phase(
    inputs: &Inputs,
    versions: &Versions,
    scratch: &Path,
    tag: &str,
    ops: u64,
    tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> (PhaseOut, String, f64) {
    let (mut server, _) = timed_setup(inputs, scratch, tag);
    let mut phase = run_phase(&mut server, inputs, versions, ops, tracer);
    shut_down(server);
    let verdict = phase
        .ledger
        .finish(inputs, versions, solver_config(inputs.workload));
    report.problems.append(&mut phase.ledger.problems);
    report.attempted += verdict.attempted;
    report.ok += verdict.ok;
    let record = repeat_record(
        &phase.ledger.repeat,
        &phase,
        class_counts(inputs),
        verdict.head_reference,
    );
    let qps = phase.answered as f64 / (phase.elapsed_ns as f64 / 1e9);
    (phase, record, qps)
}

/// The traced run: per-layer metrics.
fn traced_run(args: &Args, out_dir: &Path, scratch: &Path, report: &mut Report) {
    let w = args.workload;
    let ops = (w.ops_per_second() * args.seconds / 3).max(1);
    let inputs = Inputs::generate(w, args.seed, ops);
    let versions = Versions::new(&inputs);

    let queue_before = stage_buckets(SpanKind::QueueWait);
    let serve_before = stage_buckets(SpanKind::Serve);
    let (on, record_on, qps_on) =
        traced_phase(&inputs, &versions, scratch, "on", ops, None, report);
    let queue_after = stage_buckets(SpanKind::QueueWait);
    let serve_after = stage_buckets(SpanKind::Serve);

    mcc::obs::set_enabled(false);
    let (_, record_off, qps_off) =
        traced_phase(&inputs, &versions, scratch, "off", ops, None, report);
    mcc::obs::set_enabled(true);

    let mut tracer = Tracer::new();
    let (traced, record_traced, qps_traced) = traced_phase(
        &inputs,
        &versions,
        scratch,
        "traced",
        ops,
        Some(&mut tracer),
        report,
    );
    for (name, r) in [("telemetry off", &record_off), ("traced", &record_traced)] {
        if *r != record_on {
            report.problems.push(format!(
                "exact-repeat drift between phases:\n  telemetry on {record_on}\n  {name} {r}"
            ));
        }
    }
    let store_root = scratch.join("replay");
    let _ = std::fs::remove_dir_all(&store_root);
    let replay = layers::replay(
        &inputs,
        &versions,
        solver_config(w),
        REPLAY_PREFIX.min(ops),
        &store_root,
        &mut tracer,
    );
    report.problems.extend(replay.problems.iter().cloned());
    let record = format!(
        "{record_on} replay_classes={:?} replay_elimination_steps={} replay_bfs_runs={}",
        replay.classes,
        replay
            .solves
            .iter()
            .map(|s| s.elimination_steps)
            .sum::<u64>(),
        replay.solves.iter().map(|s| s.bfs_runs).sum::<u64>()
    );
    println!("repeat: {record}");
    check_repeat(
        out_dir,
        &format!("{}-seed{}-ops{ops}-trace1", w.name(), args.seed),
        &record,
        report,
    );
    let spans_path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    match tracer.write(&spans_path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {} ({} dropped)",
            tracer.spans.len(),
            spans_path.display(),
            tracer.dropped
        )),
        Err(e) => report.problems.push(format!("writing spans: {e}")),
    }

    let span_us = |name: &str, p: f64| {
        let d = tracer.durations(name);
        (percentile(&d, p) / 1e3, d.len() as u64)
    };
    let add_span = |report: &mut Report, metric: &str, span: &str, p: f64| {
        let (v, n) = span_us(span, p);
        report.add(metric, v, "us", n);
    };
    add_span(
        report,
        "datamodel.to_bipartite_us",
        "datamodel.to_bipartite",
        50.0,
    );
    add_span(
        report,
        "datamodel.queryengine_new_us",
        "datamodel.queryengine_new",
        50.0,
    );
    add_span(report, "datamodel.resolve_us", "datamodel.resolve", 50.0);
    add_span(
        report,
        "datamodel.connect_terminals_us",
        "datamodel.connect_terminals",
        50.0,
    );
    add_span(
        report,
        "datamodel.connect_terminals_p99_us",
        "datamodel.connect_terminals",
        99.0,
    );
    add_span(
        report,
        "chordality.classify_us",
        "chordality.classify",
        50.0,
    );
    let schemas = replay.schemas;
    for (i, name) in ["six_two", "alpha", "offclass"].iter().enumerate() {
        report.add(
            format!("chordality.{name}_share"),
            ratio(replay.classes[i], schemas),
            "ratio",
            schemas,
        );
    }
    add_span(
        report,
        "hypergraph.h1_join_tree_us",
        "hypergraph.h1_join_tree",
        50.0,
    );
    add_span(
        report,
        "core.artifacts_build_us",
        "core.artifacts_build",
        50.0,
    );
    add_span(
        report,
        "core.artifacts_build_p99_us",
        "core.artifacts_build",
        99.0,
    );
    add_span(
        report,
        "core.solver_from_artifacts_us",
        "core.solver_from_artifacts",
        50.0,
    );
    add_span(report, "core.solve_us", "core.solve", 50.0);
    add_span(report, "core.solve_p99_us", "core.solve", 99.0);

    let solves = &replay.solves;
    for (route, metric) in [
        (Route::Algorithm2, "steiner.algorithm2_us"),
        (Route::Algorithm1, "steiner.algorithm1_us"),
        (Route::Exact, "steiner.exact_us"),
        (Route::Heuristic, "steiner.kmb_us"),
    ] {
        let d: Vec<u64> = solves
            .iter()
            .filter(|s| s.route == route)
            .map(|s| s.nanos)
            .collect();
        report.add(metric, percentile(&d, 50.0) / 1e3, "us", d.len() as u64);
    }
    let rep = &on.ledger.repeat;
    let answers: u64 = rep.routes.iter().sum();
    for route in Route::ALL {
        report.add(
            format!("steiner.route_share.{}", route.name()),
            ratio(rep.routes[route as usize], answers),
            "ratio",
            answers,
        );
    }
    report.add("steiner.degraded", rep.degraded as f64, "count", answers);
    report.add(
        "steiner.dp_admission_refusals",
        rep.dp_refusals as f64,
        "count",
        answers,
    );
    let n_solves = solves.len() as u64;
    let steps: u64 = solves.iter().map(|s| s.elimination_steps).sum();
    let bfs: u64 = solves.iter().map(|s| s.bfs_runs).sum();
    report.add(
        "steiner.elimination_steps_per_query",
        ratio(steps, n_solves),
        "count",
        n_solves,
    );
    report.add(
        "steiner.bfs_runs_per_query",
        ratio(bfs, n_solves),
        "count",
        n_solves,
    );
    let mut scaling = String::new();
    for (route, tag) in [(Route::Algorithm2, "alg2"), (Route::Algorithm1, "alg1")] {
        for b in 0..BUCKETS {
            let sel: Vec<&layers::Solve> = solves
                .iter()
                .filter(|s| s.route == route && s.bucket == b)
                .collect();
            let per: Vec<f64> = sel.iter().map(|s| s.nanos as f64 / s.va as f64).collect();
            let v = if per.is_empty() { 0.0 } else { median_f(&per) };
            let va: Vec<f64> = sel.iter().map(|s| s.va as f64).collect();
            let _ = writeln!(
                scaling,
                "scaling: {tag} bucket b{b}: median |V|·|A| {:.0}, {v:.3} ns per |V|·|A| over {} solves",
                if va.is_empty() { 0.0 } else { median_f(&va) },
                per.len()
            );
            report.add(
                format!("steiner.{tag}_ns_per_va.b{b}"),
                v,
                "ns",
                per.len() as u64,
            );
        }
    }
    for k in 2..=OFFCLASS_MAX_EXACT {
        let per: Vec<f64> = solves
            .iter()
            .filter(|s| s.route == Route::Exact && s.terminals == k)
            .map(|s| s.nanos as f64 / (3f64.powi(k as i32) * s.nodes as f64))
            .collect();
        let v = if per.is_empty() { 0.0 } else { median_f(&per) };
        let _ = writeln!(
            scaling,
            "scaling: exact k={k}: {v:.3} ns per 3^k·n over {} solves",
            per.len()
        );
        report.add(
            format!("steiner.exact_ns_per_3k_n.k{k}"),
            v,
            "ns",
            per.len() as u64,
        );
    }
    print!("{scaling}");
    report.add(
        "graph.scratch_bytes_peak",
        solves.iter().map(|s| s.scratch_bytes).max().unwrap_or(0) as f64,
        "bytes",
        n_solves,
    );
    report.add(
        "graph.dense_row_share",
        ratio(replay.dense_rows, schemas),
        "ratio",
        schemas,
    );

    add_span(report, "engine.submit_us", "engine.submit", 50.0);
    add_span(report, "engine.submit_p99_us", "engine.submit", 99.0);
    let (q50, qn) = bucket_percentile_us(&queue_before, &queue_after, 50.0);
    let (q99, _) = bucket_percentile_us(&queue_before, &queue_after, 99.0);
    let (s50, sn) = bucket_percentile_us(&serve_before, &serve_after, 50.0);
    report.add("engine.queue_wait_us", q50, "us", qn);
    report.add("engine.queue_wait_p99_us", q99, "us", qn);
    report.add("engine.serve_us", s50, "us", sn);
    let mut solve_ns: HashMap<u32, Vec<u64>> = HashMap::new();
    for s in solves {
        solve_ns.entry(s.pool).or_default().push(s.nanos);
    }
    let solve_med: HashMap<u32, f64> = solve_ns
        .into_iter()
        .map(|(p, v)| (p, percentile(&v, 50.0)))
        .collect();
    let overhead: Vec<u64> = if w.uses_engine() {
        on.latencies
            .iter()
            .zip(&on.latency_pools)
            .filter_map(|(&l, p)| solve_med.get(p).map(|&s| (l as f64 - s).max(0.0) as u64))
            .collect()
    } else {
        Vec::new()
    };
    report.add(
        "engine.overhead_us",
        percentile(&overhead, 50.0) / 1e3,
        "us",
        overhead.len() as u64,
    );
    report.add(
        "engine.queue_depth_max",
        traced.queue_depth_max as f64,
        "count",
        traced.answered,
    );
    let (hits, misses, rejected, store) = match &on.engine_delta {
        Some((a, b)) => (
            b.cache_hits - a.cache_hits,
            b.cache_misses - a.cache_misses,
            b.rejected_full - a.rejected_full,
            [
                b.store_hits - a.store_hits,
                b.store_misses - a.store_misses,
                b.store_quarantined - a.store_quarantined,
                u64::from(b.store_degraded),
            ],
        ),
        None => (0, 0, 0, [0; 4]),
    };
    report.add(
        "engine.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        hits + misses,
    );
    report.add("engine.cache_misses", misses as f64, "count", hits + misses);
    report.add(
        "engine.duplicate_rebuilds",
        misses.saturating_sub(on.mutations) as f64,
        "count",
        misses,
    );
    add_span(report, "engine.replace_us", "engine.replace", 50.0);
    add_span(report, "engine.invalidate_us", "engine.invalidate", 50.0);
    report.add(
        "engine.rejected_full",
        rejected as f64,
        "count",
        on.answered,
    );

    add_span(report, "store.encode_us", "store.encode", 50.0);
    add_span(report, "store.decode_us", "store.decode", 50.0);
    report.add(
        "store.blob_bytes",
        percentile(&replay.blob_bytes, 50.0),
        "bytes",
        replay.blob_bytes.len() as u64,
    );
    add_span(report, "store.write_us", "store.write", 50.0);
    add_span(report, "store.load_us", "store.load", 50.0);
    add_span(report, "store.remove_us", "store.remove", 50.0);
    let store = if w == Workload::SchemaChurn {
        store
    } else {
        let s = replay.store;
        [s.hits, s.misses, s.quarantined, u64::from(s.degraded)]
    };
    for (i, name) in ["hits", "misses", "quarantined", "degraded"]
        .iter()
        .enumerate()
    {
        report.add(format!("store.{name}"), store[i] as f64, "count", 1);
    }
    report.add("obs.recording_cost_ratio", qps_off / qps_on, "ratio", 2);
    report.add("trace.overhead_ratio", qps_traced / qps_on, "ratio", 2);
    let own = tracer.self_times("request");
    report.add(
        "trace.request_self_us",
        percentile(&own, 50.0) / 1e3,
        "us",
        own.len() as u64,
    );
    let reads = on.latencies.len() as u64;
    report.add("throughput_qps", qps_on, "1/s", reads);
    report.add(
        "query_p99_us",
        percentile(&on.latencies, 99.0) / 1e3,
        "us",
        reads,
    );
    report.add(
        "refresh_p50_us",
        percentile(&on.refresh, 50.0) / 1e3,
        "us",
        on.refresh.len() as u64,
    );
    report.add(
        "refresh_p90_us",
        percentile(&on.refresh, 90.0) / 1e3,
        "us",
        on.refresh.len() as u64,
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mccbench: {e}");
            eprintln!(
                "usage: mccbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch: PathBuf = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("mccbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut report = Report::default();
    if args.trace {
        traced_run(&args, &out_dir, &scratch, &mut report);
    } else {
        plain_run(&args, &out_dir, &scratch, &mut report);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let declared = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if let Err(e) = metrics::conforms(
        report.metrics.iter().map(|m| (m.name.as_str(), m.unit)),
        declared,
    ) {
        report.problems.push(format!("metric list: {e}"));
    }

    println!(
        "workload {} seed {} trace {}: {} requests, {} verified",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.ok
    );
    for m in &report.metrics {
        println!(
            "  {:<40} {:>16.4} {:<6} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for n in &report.notes {
        println!("note: {n}");
    }
    for p in &report.problems {
        eprintln!("mccbench: FAILED CHECK: {p}");
    }
    let correct =
        report.problems.is_empty() && report.ok == report.attempted && report.attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.attempted.max(1) - report.ok.min(report.attempted.max(1))
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
    }

    #[test]
    fn implied_store_hits_follow_the_rotation() {
        let inputs = Inputs::generate(Workload::SchemaChurn, 3, 0);
        let p = inputs.schedule.period;
        // One triple: the restore hits the original, nothing else does.
        assert_eq!(implied_store_hits(&inputs, 3 * p), 1);
        let one_round = inputs.schemas.len() as u64 * 3 * p;
        assert_eq!(
            implied_store_hits(&inputs, one_round),
            inputs.schemas.len() as u64
        );
        // The second round also finds every perturbed variant on disk.
        assert_eq!(
            implied_store_hits(&inputs, 2 * one_round),
            3 * inputs.schemas.len() as u64
        );
    }
}
