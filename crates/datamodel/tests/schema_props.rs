//! Property tests for the data-model layer: DSL round trips, audit
//! consistency, and query-engine soundness on random schemas.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc_datamodel::relational::Relation;
use mcc_datamodel::{
    audit_relational, parse_schema, render_schema, QueryEngine, QueryError, RelationalSchema,
};
use mcc_hypergraph::AcyclicityDegree;
use proptest::prelude::*;

/// A random valid relational schema: ≤ 6 attributes, ≤ 5 relations, each
/// a nonempty attribute subset.
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

/// Reindexes a schema onto the attributes actually mentioned by some
/// relation, preserving first-mention order (the DSL's convention).
fn drop_unused_attributes(schema: &RelationalSchema) -> RelationalSchema {
    let mut kept: Vec<usize> = Vec::new();
    for r in &schema.relations {
        for &a in &r.attributes {
            if !kept.contains(&a) {
                kept.push(a);
            }
        }
    }
    let attributes = kept.iter().map(|&a| schema.attributes[a].clone()).collect();
    let relations = schema
        .relations
        .iter()
        .map(|r| Relation {
            name: r.name.clone(),
            attributes: r
                .attributes
                .iter()
                .map(|a| kept.iter().position(|k| k == a).expect("kept"))
                .collect(),
        })
        .collect();
    RelationalSchema {
        name: schema.name.clone(),
        attributes,
        relations,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// DSL render → parse is the identity up to unused attributes (the
    /// textual format mentions attributes only inside relations, so
    /// attributes used by no relation cannot survive the trip).
    #[test]
    fn dsl_roundtrip(schema in small_schema()) {
        let text = render_schema(&schema);
        let parsed = parse_schema(&text).expect("rendered schemas parse");
        prop_assert_eq!(parsed, drop_unused_attributes(&schema));
    }

    /// The audit never lies about tractability: when it promises a
    /// polynomial class, the query engine must answer feasible queries
    /// with the matching strategy, and the answers must certify.
    #[test]
    fn audit_and_engine_agree(schema in small_schema()) {
        let report = audit_relational(&schema).expect("valid by construction");
        let engine = QueryEngine::new(schema.clone()).expect("valid");
        // Try every attribute pair.
        for i in 0..schema.attributes.len() {
            for j in (i + 1)..schema.attributes.len() {
                let names = [schema.attributes[i].as_str(), schema.attributes[j].as_str()];
                match engine.connect(&names) {
                    Ok(it) => {
                        prop_assert!(it.tree.is_valid_tree(engine.graph().graph()));
                        use mcc_datamodel::Strategy;
                        match it.strategy {
                            Strategy::Algorithm2 => {
                                prop_assert!(report.classification.six_two)
                            }
                            Strategy::Algorithm1 => prop_assert!(
                                report.classification.pseudo_steiner_v2_polynomial()
                            ),
                            Strategy::Exact | Strategy::Heuristic => prop_assert!(
                                !report.classification.six_two
                                    && !report
                                        .classification
                                        .pseudo_steiner_v2_polynomial()
                            ),
                        }
                    }
                    Err(QueryError::Disconnected) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                }
            }
        }
    }

    /// The audit's degree, read off the bipartite classes by Theorem 1,
    /// equals the one the hypergraph-side recognizers derive.
    #[test]
    fn audit_degree_matches_the_hypergraph_oracle(schema in small_schema()) {
        let report = audit_relational(&schema).expect("valid");
        let h = schema.to_hypergraph().expect("valid");
        prop_assert_eq!(report.degree, AcyclicityDegree::of(&h));
    }

    /// Repair suggestions always work: applying them yields an α-acyclic
    /// schema (and none are offered for already-acyclic schemas).
    #[test]
    fn repair_suggestions_always_work(schema in small_schema()) {
        let report = audit_relational(&schema).expect("valid");
        if report.degree >= AcyclicityDegree::Alpha {
            prop_assert!(report.repair_suggestion.is_empty());
        } else {
            prop_assert!(!report.repair_suggestion.is_empty());
            let fixed = mcc_datamodel::apply_repair_suggestion(&schema, &report);
            let after = audit_relational(&fixed).expect("repair preserves validity");
            prop_assert!(after.degree >= AcyclicityDegree::Alpha);
        }
    }

    /// Hypergraph round trip through the schema type is lossless.
    #[test]
    fn hypergraph_roundtrip(schema in small_schema()) {
        let h = schema.to_hypergraph().expect("valid");
        let back = RelationalSchema::from_hypergraph(&schema.name, &h);
        prop_assert_eq!(back, schema);
    }
}
