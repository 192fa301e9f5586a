//! Quickstart: build a schema graph, classify it, and find minimal
//! connections with the auto-dispatching solver.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mcc::prelude::*;
use mcc_graph::bipartite::bipartite_from_lists;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small library schema as a bipartite graph: attributes on V1,
    // relations on V2.
    //   LOANS(reader, book, due)   BOOKS(book, title)   READERS(reader, name)
    let bg = bipartite_from_lists(
        &["reader", "book", "due", "title", "name"],
        &["LOANS", "BOOKS", "READERS"],
        &[
            (0, 0),
            (1, 0),
            (2, 0), // LOANS
            (1, 1),
            (3, 1), // BOOKS
            (0, 2),
            (4, 2), // READERS
        ],
    );

    // 1. Classify: which of the paper's chordality/acyclicity classes
    //    does this schema satisfy, and what does that buy us?
    let classification = classify_bipartite(&bg);
    println!("=== classification ===");
    println!("{classification}");
    println!();

    // 2. Solve: connect `name` and `title` with the fewest objects.
    let solver = Solver::new(bg);
    let g = solver.graph().graph();
    let mut terminals = NodeSet::new(g.node_count());
    for label in ["name", "title"] {
        terminals.insert(g.node_by_label(label).ok_or("unknown label")?);
    }
    let sol = solver.solve_steiner(&terminals)?;

    println!("=== minimal connection: name -- title ===");
    println!(
        "strategy: {:?} (optimal: {})",
        sol.strategy,
        sol.strategy.optimal()
    );
    println!("objects used ({}):", sol.cost);
    for v in sol.tree.nodes.iter() {
        println!("  {}", g.label(v));
    }
    println!("arcs:");
    for (a, b) in &sol.tree.edges {
        println!("  {} -- {}", g.label(*a), g.label(*b));
    }

    // 3. Pseudo-Steiner: the same query minimizing only the *relation*
    //    count (the paper's Algorithm 1 territory).
    let pseudo = solver.solve_pseudo(&terminals, Side::V2)?;
    println!();
    println!("=== minimum-relation connection ===");
    println!(
        "strategy: {:?}, relations used: {}",
        pseudo.strategy, pseudo.cost
    );
    Ok(())
}
