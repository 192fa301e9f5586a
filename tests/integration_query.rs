//! End-to-end tests of the query interface over semantic data models —
//! the universal-relation scenario of the paper's introduction and
//! conclusions.

use mcc::prelude::*;
use mcc_datamodel::{audit_relational, enumerate_tree_interpretations, Strategy};
use mcc_hypergraph::AcyclicityDegree;

/// A small university schema that is γ-acyclic (interval-structured), so
/// every query gets a true minimum connection via Algorithm 2.
fn university() -> RelationalSchema {
    RelationalSchema::from_lists(
        "university",
        &["student", "course", "grade", "lecturer", "room"],
        &[
            ("ENROLLED", &[0, 1, 2]),
            ("TEACHES", &[1, 3]),
            ("LOCATED", &[3, 4]),
        ],
    )
}

/// An α-but-not-β-acyclic schema (the covered triangle), where only
/// minimum-relation connections are tractable.
fn alpha_schema() -> RelationalSchema {
    RelationalSchema::from_lists(
        "alpha",
        &["a", "b", "c", "x", "y", "z"],
        &[
            ("R_AB", &[0, 1, 3]),
            ("R_BC", &[1, 2, 4]),
            ("R_AC", &[0, 2, 5]),
            ("R_ABC", &[0, 1, 2]),
        ],
    )
}

#[test]
fn university_queries_use_algorithm2_and_are_minimal() {
    let audit = audit_relational(&university()).unwrap();
    assert!(audit.classification.six_two);
    let engine = QueryEngine::new(university()).unwrap();

    let it = engine.connect(&["student", "room"]).unwrap();
    assert_eq!(it.strategy, Strategy::Algorithm2);
    // student → ENROLLED → course → TEACHES → lecturer → LOCATED → room.
    assert_eq!(it.relations.len(), 3);
    assert!(it.tree.is_valid_tree(engine.graph().graph()));

    // Verify minimality against the exact solver.
    let terminals = engine.resolve(&["student", "room"]).unwrap();
    let exact = mcc_steiner::steiner_exact(&SteinerInstance::new(
        engine.graph().graph().clone(),
        terminals,
    ))
    .unwrap();
    assert_eq!(it.node_cost() as u64, exact.cost);
}

#[test]
fn alpha_schema_minimizes_relations() {
    let audit = audit_relational(&alpha_schema()).unwrap();
    assert_eq!(audit.degree, AcyclicityDegree::Alpha);
    assert!(audit.recommendation().contains("Algorithm 1"));

    let engine = QueryEngine::new(alpha_schema()).unwrap();
    let it = engine.connect(&["x", "y"]).unwrap();
    assert_eq!(it.strategy, Strategy::Algorithm1);
    // x lives only in R_AB, y only in R_BC: two relations are forced and
    // suffice (they share attribute b).
    assert_eq!(it.relations.len(), 2);
    assert!(it.relations.contains(&"R_AB".to_string()));
    assert!(it.relations.contains(&"R_BC".to_string()));
}

#[test]
fn queries_mixing_levels() {
    let engine = QueryEngine::new(university()).unwrap();
    // Relation + attribute in the same query.
    let it = engine.connect(&["ENROLLED", "lecturer"]).unwrap();
    assert!(it.relations.contains(&"ENROLLED".to_string()));
    assert!(it.relations.contains(&"TEACHES".to_string()));
    assert!(it.attributes.contains(&"course".to_string()));
}

#[test]
fn interpretations_are_ranked_by_disclosure() {
    // In the university schema, student–grade has the direct ENROLLED
    // interpretation; alternatives must disclose strictly more concepts.
    let engine = QueryEngine::new(university()).unwrap();
    let terminals = engine.resolve(&["student", "grade"]).unwrap();
    let alts = enumerate_tree_interpretations(engine.graph().graph(), &terminals, 5, 2);
    assert!(!alts.is_empty());
    assert_eq!(alts[0].node_cost(), 3); // student-ENROLLED-grade
    for w in alts.windows(2) {
        assert!(
            w[0].node_cost() <= w[1].node_cost(),
            "ranking must be monotone"
        );
    }
}

#[test]
fn audit_report_renders() {
    let report = audit_relational(&university()).unwrap();
    let text = report.to_string();
    assert!(text.contains("university"));
    assert!(text.contains("Algorithm 2"));
    let report = audit_relational(&alpha_schema()).unwrap();
    assert!(report.to_string().contains("Algorithm 1"));
}

#[test]
fn fig1_as_er_query_pipeline() {
    // The ER-level pipeline of the introduction, end to end: schema →
    // concept graph → minimal connection → alternatives.
    let er = mcc::figures::fig1().to_graph().unwrap();
    let g = &er.graph;
    let terminals = NodeSet::from_nodes(
        g.node_count(),
        [er.node("EMPLOYEE").unwrap(), er.node("DATE").unwrap()],
    );
    let alts = enumerate_tree_interpretations(g, &terminals, 4, 3);
    // Interpretation 1: direct arc (2 nodes). Interpretation 2: via
    // WORKS (3 nodes). Both are offered, minimal first.
    assert!(alts.len() >= 2);
    assert_eq!(alts[0].node_cost(), 2);
    assert_eq!(alts[1].node_cost(), 3);
}

/// The engine classifies the bipartite graph it already built; the
/// result must be exactly the classification the schema audit reports,
/// so the route each query takes is the one the report explains.
#[test]
fn engine_classification_matches_audit() {
    use mcc::chordality::chordal_bipartite::drop_isolated_v2;
    use mcc::gen::block_tree::BlockTreeShape;
    use mcc::gen::join_tree::JoinTreeShape;
    use mcc_datamodel::er_to_relational;

    let schema_of = |name: &str, bg: &BipartiteGraph| {
        let (h, _, _) = mcc::hypergraph::h1_of_bipartite(&drop_isolated_v2(bg)).unwrap();
        RelationalSchema::from_hypergraph(name, &h)
    };
    let f2 = mcc::figures::fig2();
    let f3 = mcc::figures::fig3();
    let mut schemas = vec![
        er_to_relational(&mcc::figures::fig1()).unwrap(),
        RelationalSchema::from_hypergraph("fig2_h1", &f2.h1),
        RelationalSchema::from_hypergraph("fig2_h2", &f2.h2),
        schema_of("fig3a", &f3.a),
        schema_of("fig3b", &f3.b),
        schema_of("fig3c", &f3.c),
        schema_of("fig5", &mcc::figures::fig5()),
        schema_of("fig8", &mcc::figures::fig8().g),
        university(),
        alpha_schema(),
    ];
    schemas.extend(mcc::datamodel::catalog::all());
    for seed in 0..12u64 {
        let shape = JoinTreeShape {
            num_edges: 10 + seed as usize,
            ..JoinTreeShape::default()
        };
        let (h, _) = mcc::gen::random_alpha_acyclic(shape, seed);
        schemas.push(RelationalSchema::from_hypergraph("alpha", &h));
        let shape = BlockTreeShape {
            blocks: 4 + seed as usize,
            max_block: 3,
        };
        let blocks = mcc::gen::random_six_two_block_tree(shape, seed);
        schemas.push(schema_of("blocks", &blocks));
        let off = mcc::gen::random_bipartite(6, 6, 0.45, seed);
        schemas.push(schema_of("random", &off));
    }
    let mut routes = [0usize; 3];
    for schema in schemas {
        let audit = audit_relational(&schema).unwrap().classification;
        let class = QueryEngine::new(schema.clone()).unwrap().classification();
        assert_eq!(class, audit, "schema {}", schema.name);
        routes[if class.six_two {
            0
        } else if class.h1_alpha_acyclic() {
            1
        } else {
            2
        }] += 1;
    }
    // Every route of the ladder is exercised.
    assert!(routes.iter().all(|&r| r > 0), "routes {routes:?}");
}
