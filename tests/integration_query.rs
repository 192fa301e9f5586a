//! End-to-end tests of the query interface over semantic data models —
//! the universal-relation scenario of the paper's introduction and
//! conclusions.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers may panic"
)]

use mcc::prelude::*;
use mcc::SolverConfig;
use mcc_datamodel::{audit_relational, try_enumerate_tree_interpretations, QueryError, Strategy};
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
    assert_eq!(it.relations().count(), 3);
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
    assert!(it.relations().eq(["R_AB", "R_BC"]));
}

#[test]
fn queries_mixing_levels() {
    let engine = QueryEngine::new(university()).unwrap();
    // Relation + attribute in the same query.
    let it = engine.connect(&["ENROLLED", "lecturer"]).unwrap();
    assert!(it.relations().any(|r| r == "ENROLLED"));
    assert!(it.relations().any(|r| r == "TEACHES"));
    assert!(it.attributes().any(|a| a == "course"));
}

#[test]
fn interpretations_are_ranked_by_disclosure() {
    // In the university schema, student–grade has the direct ENROLLED
    // interpretation; alternatives must disclose strictly more concepts.
    let engine = QueryEngine::new(university()).unwrap();
    let terminals = engine.resolve(&["student", "grade"]).unwrap();
    let alts =
        try_enumerate_tree_interpretations(engine.graph().graph(), &terminals, 5, 2).unwrap();
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
    let alts = try_enumerate_tree_interpretations(g, &terminals, 4, 3).unwrap();
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

/// `schema_of` for generated bipartite graphs: relations are `H¹`'s
/// edges (isolated relations dropped, as a schema cannot declare them).
fn generated_schema(name: &str, bg: &BipartiteGraph) -> RelationalSchema {
    let cleaned = mcc::chordality::chordal_bipartite::drop_isolated_v2(bg);
    let (h, _, _) = mcc::hypergraph::h1_of_bipartite(&cleaned).unwrap();
    RelationalSchema::from_hypergraph(name, &h)
}

/// The call the one ladder makes for `class`: Algorithm 2's Steiner solve
/// on (6,2) schemas, the `V2` pseudo-Steiner solve (Algorithm 1) when
/// only `H¹` is α-acyclic, the Steiner solve's off-class ladder otherwise.
fn matching_solver_call(
    solver: &Solver,
    terminals: &NodeSet,
) -> (bool, Result<Solution, SolveError>) {
    let class = solver.classification();
    if !class.six_two && class.h1_alpha_acyclic() {
        (true, solver.solve_pseudo(terminals, Side::V2))
    } else {
        (false, solver.solve_steiner(terminals))
    }
}

/// `QueryEngine` is a front over the core `Solver`: over seeded (6,2),
/// α-acyclic and off-class schemas (some above 64 nodes), every query
/// answers with the strategy, cost and degradation of the matching
/// `Solver` call, and each class lands on the route its theorem licenses.
#[test]
fn query_engine_and_solver_are_one_ladder() {
    use mcc::gen::block_tree::BlockTreeShape;
    use mcc::gen::join_tree::JoinTreeShape;

    let mut schemas = Vec::new();
    for seed in 0..8u64 {
        let shape = BlockTreeShape {
            blocks: 4 + 3 * seed as usize,
            max_block: 4,
        };
        let blocks = mcc::gen::random_six_two_block_tree(shape, seed);
        schemas.push(generated_schema("six_two", &blocks));
        let shape = JoinTreeShape {
            num_edges: 6 + 3 * seed as usize,
            ..JoinTreeShape::default()
        };
        let (h, _) = mcc::gen::random_alpha_acyclic(shape, seed);
        schemas.push(RelationalSchema::from_hypergraph("alpha", &h));
        let (n1, n2) = if seed % 2 == 0 { (7, 7) } else { (40, 30) };
        let off = mcc::gen::random_bipartite(n1, n2, 0.2, seed);
        schemas.push(generated_schema("off_class", &off));
    }
    let mut routes = [0usize; 4];
    let mut above_64 = 0;
    for schema in schemas {
        let engine = QueryEngine::new(schema.clone()).unwrap();
        let solver = Solver::new(schema.to_bipartite().unwrap());
        let g = solver.graph().graph();
        let class = *solver.classification();
        above_64 += usize::from(g.node_count() > 64);
        for (k, seed) in [(2, 1), (3, 2), (5, 3), (6, 4)] {
            let terminals = mcc::gen::random_terminals(g, None, k.min(g.node_count()), seed);
            let (pseudo, expected) = matching_solver_call(&solver, &terminals);
            let got = engine.connect_terminals(&terminals);
            let (it, sol) = match (got, expected) {
                (Ok(it), Ok(sol)) => (it, sol),
                (Err(QueryError::Disconnected), Err(SolveError::Disconnected)) => continue,
                (got, expected) => panic!("{}: {got:?} vs {expected:?}", schema.name),
            };
            let cost = if pseudo {
                it.relations().count()
            } else {
                it.node_cost()
            };
            assert_eq!(it.strategy, sol.strategy, "{}", schema.name);
            assert_eq!(cost, sol.cost, "{}", schema.name);
            assert_eq!(it.degraded, sol.degraded, "{}", schema.name);
            assert!(it.tree.is_valid_tree(g));
            let route = match it.strategy {
                Strategy::Algorithm2 => 0,
                Strategy::Algorithm1 => 1,
                Strategy::Exact => 2,
                Strategy::Heuristic => 3,
            };
            routes[route] += 1;
            let licensed = if class.six_two {
                Strategy::Algorithm2
            } else if class.h1_alpha_acyclic() {
                Strategy::Algorithm1
            } else {
                Strategy::Exact
            };
            assert_eq!(it.strategy, licensed, "{}", schema.name);
        }
    }
    assert!(routes[..3].iter().all(|&r| r > 0), "routes {routes:?}");
    assert!(above_64 >= 6, "only {above_64} schemas above 64 nodes");
}

/// The exact-DP gate is the `Solver`'s: at most `max_exact_terminals`
/// terminals under DP-byte admission, with no node cap. An off-class
/// schema above 64 nodes (which the old ≤64-node gate sent to KMB) now
/// answers exactly, so does an 11-terminal query (the old gate stopped at
/// 10), and a zero DP-byte budget degrades the exact route to KMB.
#[test]
fn off_class_exact_gate_has_no_node_cap() {
    let bg = mcc::gen::random_bipartite(40, 30, 0.2, 1);
    let schema = generated_schema("off_class", &bg);
    let engine = QueryEngine::new(schema.clone()).unwrap();
    let class = engine.classification();
    assert!(!class.six_two && !class.h1_alpha_acyclic());
    let g = engine.graph().graph();
    assert!(g.node_count() > 64);
    let terminals = mcc::gen::random_terminals(g, None, 4, 7);
    assert!(terminals.len() <= SolverConfig::default().max_exact_terminals);

    let it = engine.connect_terminals(&terminals).unwrap();
    assert_eq!(it.strategy, Strategy::Exact);
    assert!(it.degraded.is_none());
    let exact =
        mcc_steiner::steiner_exact(&SteinerInstance::new(g.clone(), terminals.clone())).unwrap();
    assert_eq!(it.node_cost() as u64, exact.cost);

    let small = generated_schema("off_class_small", &mcc::gen::random_bipartite(8, 8, 0.3, 2));
    let small = QueryEngine::new(small).unwrap();
    let class = small.classification();
    assert!(!class.six_two && !class.h1_alpha_acyclic());
    let eleven = mcc::gen::random_terminals(small.graph().graph(), None, 11, 3);
    assert_eq!(eleven.len(), 11);
    let it = small.connect_terminals(&eleven).unwrap();
    assert_eq!(it.strategy, Strategy::Exact);

    let no_dp = SolveBudget {
        max_dp_bytes: 0,
        ..SolveBudget::default()
    };
    let engine = QueryEngine::with_budget(schema, no_dp).unwrap();
    let it = engine.connect_terminals(&terminals).unwrap();
    assert_eq!(it.strategy, Strategy::Heuristic);
    let d = it.degraded.expect("the DP admission refusal is recorded");
    assert_eq!(d.from, Stage::ExactDp);
    assert_eq!(d.reason.kind, mcc::BudgetKind::DpTableBytes);
    assert!(it.tree.is_valid_tree(engine.graph().graph()));
}
