//! The metric names and units the benchmark reports, in output order.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step, and every run checks its output against them.

/// End-to-end metrics of an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("ok_ratio", "ratio"),
    ("guaranteed_ratio", "ratio"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datamodel.to_bipartite_us", "us"),
    ("datamodel.queryengine_new_us", "us"),
    ("datamodel.resolve_us", "us"),
    ("datamodel.connect_terminals_us", "us"),
    ("datamodel.connect_terminals_p99_us", "us"),
    ("chordality.classify_us", "us"),
    ("chordality.six_two_share", "ratio"),
    ("chordality.alpha_share", "ratio"),
    ("chordality.offclass_share", "ratio"),
    ("hypergraph.h1_join_tree_us", "us"),
    ("core.artifacts_build_us", "us"),
    ("core.artifacts_build_p99_us", "us"),
    ("core.solver_from_artifacts_us", "us"),
    ("core.solve_us", "us"),
    ("core.solve_p99_us", "us"),
    ("steiner.algorithm2_us", "us"),
    ("steiner.algorithm1_us", "us"),
    ("steiner.exact_us", "us"),
    ("steiner.kmb_us", "us"),
    ("steiner.route_share.algorithm2", "ratio"),
    ("steiner.route_share.algorithm1", "ratio"),
    ("steiner.route_share.exact", "ratio"),
    ("steiner.route_share.heuristic", "ratio"),
    ("steiner.degraded", "count"),
    ("steiner.dp_admission_refusals", "count"),
    ("steiner.elimination_steps_per_query", "count"),
    ("steiner.bfs_runs_per_query", "count"),
    ("steiner.alg2_ns_per_va.b0", "ns"),
    ("steiner.alg2_ns_per_va.b1", "ns"),
    ("steiner.alg2_ns_per_va.b2", "ns"),
    ("steiner.alg2_ns_per_va.b3", "ns"),
    ("steiner.alg1_ns_per_va.b0", "ns"),
    ("steiner.alg1_ns_per_va.b1", "ns"),
    ("steiner.alg1_ns_per_va.b2", "ns"),
    ("steiner.alg1_ns_per_va.b3", "ns"),
    ("steiner.exact_ns_per_3k_n.k2", "ns"),
    ("steiner.exact_ns_per_3k_n.k3", "ns"),
    ("steiner.exact_ns_per_3k_n.k4", "ns"),
    ("steiner.exact_ns_per_3k_n.k5", "ns"),
    ("steiner.exact_ns_per_3k_n.k6", "ns"),
    ("steiner.exact_ns_per_3k_n.k7", "ns"),
    ("graph.scratch_bytes_peak", "bytes"),
    ("graph.dense_row_share", "ratio"),
    ("engine.submit_us", "us"),
    ("engine.submit_p99_us", "us"),
    ("engine.queue_wait_us", "us"),
    ("engine.queue_wait_p99_us", "us"),
    ("engine.serve_us", "us"),
    ("engine.overhead_us", "us"),
    ("engine.queue_depth_max", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_misses", "count"),
    ("engine.duplicate_rebuilds", "count"),
    ("engine.replace_us", "us"),
    ("engine.invalidate_us", "us"),
    ("engine.rejected_full", "count"),
    ("store.encode_us", "us"),
    ("store.decode_us", "us"),
    ("store.blob_bytes", "bytes"),
    ("store.write_us", "us"),
    ("store.load_us", "us"),
    ("store.remove_us", "us"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.quarantined", "count"),
    ("store.degraded", "count"),
    ("obs.recording_cost_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.request_self_us", "us"),
    ("throughput_qps", "1/s"),
    ("query_p99_us", "us"),
    ("refresh_p50_us", "us"),
    ("refresh_p90_us", "us"),
];

/// `Err` naming the first reported metric that differs from `declared`.
pub fn conforms<'a>(
    reported: impl IntoIterator<Item = (&'a str, &'a str)>,
    declared: &[(&str, &str)],
) -> Result<(), String> {
    let reported: Vec<(&str, &str)> = reported.into_iter().collect();
    if reported.len() != declared.len() {
        return Err(format!(
            "{} metrics reported, {} declared",
            reported.len(),
            declared.len()
        ));
    }
    for (r, d) in reported.iter().zip(declared) {
        if r != d {
            return Err(format!("reported {r:?} where {d:?} is declared"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
            && n.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
            );
        }
    }

    /// Every `"name"` in `BENCHMARK.json` is a workload or a declared
    /// metric, and every declared metric is listed there.
    #[test]
    fn benchmark_json_lists_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: BTreeSet<String> = text
            .split("\"name\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect();
        let mut expected: BTreeSet<String> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.0.to_string())
            .collect();
        for w in crate::inputs::Workload::ALL {
            expected.insert(w.name().to_string());
        }
        assert_eq!(names, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = text
                .split("\"name\"")
                .find(|rest| rest.split('"').nth(1) == Some(*name))
                .expect("listed");
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }
}
