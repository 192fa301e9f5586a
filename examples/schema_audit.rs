//! Schema audit: classify a portfolio of relational schemas by the
//! paper's chordality/acyclicity taxonomy and report which connection
//! problems are tractable on each.
//!
//! ```sh
//! cargo run --example schema_audit
//! ```

use mcc::prelude::*;
use mcc_datamodel::audit_relational;
use mcc_gen::random_alpha_acyclic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut schemas: Vec<RelationalSchema> = vec![
        // A textbook 3NF-ish sales schema: a join tree, hence γ-acyclic.
        RelationalSchema::from_lists(
            "sales",
            &["order_id", "customer", "item", "price", "city"],
            &[
                ("ORDERS", &[0, 1]),
                ("LINES", &[0, 2, 3]),
                ("CUSTOMERS", &[1, 4]),
            ],
        ),
        // A covered-triangle schema: α-acyclic but not β-acyclic —
        // Algorithm 1 territory, full Steiner NP-hard (Theorem 2).
        RelationalSchema::from_lists(
            "triangle+root",
            &["a", "b", "c"],
            &[
                ("AB", &[0, 1]),
                ("BC", &[1, 2]),
                ("AC", &[0, 2]),
                ("ABC", &[0, 1, 2]),
            ],
        ),
        // A genuinely cyclic schema.
        RelationalSchema::from_lists(
            "cycle",
            &["a", "b", "c"],
            &[("AB", &[0, 1]), ("BC", &[1, 2]), ("AC", &[0, 2])],
        ),
    ];
    // A generated α-acyclic schema, as a database designer's "what did
    // the tool give me" case.
    let (h, _) = random_alpha_acyclic(Default::default(), 42);
    schemas.push(RelationalSchema::from_hypergraph("generated-42", &h));

    for schema in &schemas {
        match audit_relational(schema) {
            Ok(report) => {
                println!("{report}");
                if let Ok(bg) = schema.to_bipartite() {
                    println!("  shape: {}", mcc::graph::graph_stats(bg.graph()));
                }
                println!();
            }
            Err(e) => println!("schema {:?} is invalid: {e}", schema.name),
        }
    }

    // Summary table.
    println!("=== summary ===");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}",
        "schema", "(4,1)", "(6,2)", "(6,1)", "alpha"
    );
    for schema in &schemas {
        let r = audit_relational(schema)?;
        let c = r.classification;
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8}",
            schema.name,
            c.four_one,
            c.six_two,
            c.six_one,
            c.h1_alpha_acyclic()
        );
    }
    Ok(())
}
