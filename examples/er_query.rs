//! The paper's introductory scenario (Fig. 1): a logically independent
//! query over an entity-relationship schema, with ranked alternative
//! interpretations.
//!
//! ```sh
//! cargo run --example er_query
//! ```

use mcc::figures;
use mcc_datamodel::{try_enumerate_tree_interpretations, DisambiguationSession};
use mcc_graph::NodeSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = figures::fig1();
    println!("ER schema {:?}:", schema.name);
    for e in &schema.entities {
        println!("  entity {} ({})", e.name, e.attributes.join(", "));
    }
    for r in &schema.relationships {
        println!(
            "  relationship {} over ({}) with ({})",
            r.name,
            r.entities.join(", "),
            r.attributes.join(", ")
        );
    }
    println!();

    let er = schema.to_graph()?;
    let g = &er.graph;

    // The user query: "EMPLOYEE, DATE" — no aggregation knowledge needed.
    let query = ["EMPLOYEE", "DATE"];
    println!("query: {query:?}");
    let mut terminals = NodeSet::new(g.node_count());
    for label in query {
        terminals.insert(er.node(label).ok_or("unknown concept")?);
    }

    // Enumerate interpretations, minimal first — the paper's interactive
    // disambiguation loop: disclose as few auxiliary concepts as possible.
    let alternatives = try_enumerate_tree_interpretations(g, &terminals, 5, 2)?;
    for (i, tree) in alternatives.iter().enumerate() {
        let objects: Vec<&str> = tree.nodes.iter().map(|v| g.label(v)).collect();
        let arcs: Vec<String> = tree
            .edges
            .iter()
            .map(|(a, b)| format!("{}--{}", g.label(*a), g.label(*b)))
            .collect();
        println!(
            "interpretation {} ({} objects, {} auxiliary): {} via [{}]",
            i + 1,
            tree.node_cost(),
            tree.node_cost() - terminals.len(),
            objects.join(", "),
            arcs.join(", ")
        );
        match i {
            0 => println!("  -> \"list employees with their birthdate\""),
            1 => println!("  -> \"list employees with the date they started in a department\""),
            _ => {}
        }
    }

    // The paper's interactive loop: propose minimal first, disclose more
    // only on rejection.
    println!();
    println!("interactive disambiguation (user rejects the first reading):");
    let mut session = DisambiguationSession::open(g, &terminals, 5, 2)?;
    println!(
        "  system: {}",
        session.describe_current().ok_or("no proposal")?
    );
    println!("  user:   no, the other one");
    session.reject();
    if let Some(desc) = session.describe_current() {
        println!("  system: {desc}");
        println!(
            "  (total concepts disclosed so far: {})",
            session.disclosed_count()
        );
    }
    let accepted = session.accept().ok_or("nothing to accept")?;
    println!("  accepted: {} objects", accepted.node_cost());
    Ok(())
}
